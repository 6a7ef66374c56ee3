// defense_eval reproduces the defense side of the paper: the Figure 12
// overhead of the §5.2 basic fence defense on the synthetic SPEC-like
// kernels, and a §5.1 non-interference check showing that the ideal fence
// variant satisfies C(E) = C(NoSpec(E)) on the Spectre victim while the
// unprotected baseline violates it.
package main

import (
	"context"
	"fmt"
	"log"

	si "specinterference"
	"specinterference/internal/security"
	"specinterference/internal/uarch"
)

const victim = `
    movi r1, 131072
    movi r5, 16384
    movi r9, 4
    store r9, 0(r5)
    movi r2, 0
    movi r8, 5
loop:
    flush 0(r5)
    fence
    load r6, 0(r5)
    blt  r2, r6, in
    jmp  next
in:
    shli r10, r2, 6
    add  r10, r10, r1
    load r7, 0(r10)
next:
    addi r2, r2, 1
    blt  r2, r8, loop
    halt`

func main() {
	fmt.Println("== Figure 12: basic fence defense overhead (normalized to unsafe)")
	schemesList := []string{"fence-spectre", "fence-futuristic"}
	rec, err := si.RunExperiment(context.Background(), si.ExpFigure12,
		si.RunParams{Iters: 1500, Schemes: schemesList}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rec.Figure12.EvalResult().Format(schemesList))
	fmt.Println("paper (SPEC CPU2017): 1.58x mean Spectre, 5.38x mean Futuristic")

	fmt.Println("\n== §5.1 ideal invisible speculation: C(E) = C(NoSpec(E))")
	prog := si.MustAssemble(victim)
	for _, name := range []string{"unsafe", "dom", "fence-spectre-ideal"} {
		name := name
		rep, err := si.CheckIdealInvisibleSpeculation(security.RunSpec{
			Prog: prog,
			PolicyFactory: func() uarch.SpecPolicy {
				p, err := si.Scheme(name)
				if err != nil {
					log.Fatal(err)
				}
				return p
			},
			Config: si.DefaultConfig(1),
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s sequence-equal: %-5v  set-equal: %-5v  (mispredicts in E: %d)\n",
			name, rep.Holds, rep.SetHolds, rep.Mispredicts)
	}
	fmt.Println("\nunsafe fails even set equality (the transient footprint);")
	fmt.Println("the ideal fence satisfies the full definition — at Figure 12's cost.")
}
