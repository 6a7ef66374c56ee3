package core

import (
	"fmt"
	"strings"
)

// MatrixCell is one entry of the Table 1 vulnerability matrix.
type MatrixCell struct {
	Scheme   string
	Gadget   Gadget
	Ordering Ordering
	// Vulnerable is true when the visible LLC access pattern over the
	// probe lines differs between secret values — the §3.3 criterion
	// ("achieving such secret-dependent ordering is equivalent to forming
	// a covert channel").
	Vulnerable bool
	// Sig0 and Sig1 are the probe signatures for secret 0 and 1.
	Sig0, Sig1 string
	// RefCycle is the calibrated attacker reference time (AD orderings).
	RefCycle int64
}

// Combos lists the gadget × ordering combinations of Table 1.
func Combos() [][2]interface{} {
	return [][2]interface{}{
		{GadgetNPEU, OrderVDVD},
		{GadgetNPEU, OrderVDAD},
		{GadgetNPEU, OrderVIAD},
		{GadgetMSHR, OrderVDVD},
		{GadgetMSHR, OrderVDAD},
		{GadgetMSHR, OrderVIAD},
		{GadgetRS, OrderVIAD},
	}
}

// Classify runs both secret values for one scheme/gadget/ordering and
// decides vulnerability. For the AD orderings it first calibrates the
// attacker's reference cycle from two solo runs (the paper's attacker
// issues its access "at a fixed time after inducing the mis-speculation"),
// then replays both secrets with the cross-core reference injected.
//
//speclint:allocfree
func Classify(schemeName string, g Gadget, ord Ordering) (MatrixCell, error) {
	ts := AcquireTrialState()
	defer ReleaseTrialState(ts)
	cell := MatrixCell{Scheme: schemeName, Gadget: g, Ordering: ord}
	// run executes one trial on the shared state and extracts the scalars
	// Classify needs before the next run reuses the result buffers —
	// consecutive results from one TrialState alias each other, so the
	// *TrialResult itself must not outlive the call.
	run := func(secret int, refCycle int64) (sig string, secretCycle int64, err error) {
		policy, err := ts.Policy(schemeName)
		if err != nil {
			return "", 0, err
		}
		r, err := ts.Run(TrialSpec{
			Gadget: g, Ordering: ord, Policy: policy,
			Secret: secret, RefCycle: refCycle,
		})
		if err != nil {
			return "", 0, err
		}
		return r.Signature(), r.SecretLineCycle, nil
	}

	refCycle := int64(0)
	if ord == OrderVDAD || ord == OrderVIAD {
		sig0, t0, err := run(0, 0)
		if err != nil {
			return cell, err
		}
		sig1, t1, err := run(1, 0)
		if err != nil {
			return cell, err
		}
		switch {
		case t0 == t1:
			// The secret line appears at the same time (or never) under
			// both secrets: no reference clock can distinguish them.
			cell.Sig0, cell.Sig1 = sig0, sig1
			cell.Vulnerable = cell.Sig0 != cell.Sig1
			return cell, nil
		case t0 < 0 || t1 < 0:
			// Present under one secret only (the GIRS presence channel):
			// any reference time works; pick one after the present access.
			present := t0
			if present < 0 {
				present = t1
			}
			refCycle = present + 50
		default:
			refCycle = (t0 + t1) / 2
		}
	}

	sig0, _, err := run(0, refCycle)
	if err != nil {
		return cell, err
	}
	sig1, _, err := run(1, refCycle)
	if err != nil {
		return cell, err
	}
	cell.Sig0, cell.Sig1 = sig0, sig1
	cell.Vulnerable = cell.Sig0 != cell.Sig1
	cell.RefCycle = refCycle
	return cell, nil
}

// MatrixShards returns the Table 1 shard count: one per
// scheme×gadget×ordering cell.
func MatrixShards(schemeNames []string) int {
	return len(Combos()) * len(schemeNames)
}

// MatrixShard classifies cell j of the scheme grid: combo j/len(schemes),
// scheme j%len(schemes) — the serial loop's cell order. Classification is
// seedless and each shard builds its own machine, so MatrixShard is a pure
// function of (schemeNames, j) and runs identically on any backend.
//
//speclint:allocfree
func MatrixShard(schemeNames []string, j int) (MatrixCell, error) {
	combo := Combos()[j/len(schemeNames)]
	name := schemeNames[j%len(schemeNames)]
	g := combo[0].(Gadget)
	ord := combo[1].(Ordering)
	cell, err := Classify(name, g, ord)
	if err != nil {
		return MatrixCell{}, fmt.Errorf("core: %s/%s/%s: %w", name, g, ord, err)
	}
	return cell, nil
}

// ExpectedTable1 returns the paper's Table 1 as a map from
// "gadget|ordering" to the set of vulnerable scheme names (the unsafe
// baseline, trivially vulnerable, is included for completeness).
func ExpectedTable1() map[string]map[string]bool {
	set := func(names ...string) map[string]bool {
		m := map[string]bool{}
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	// cleanupspec is our §6 extension (not part of the paper's Table 1):
	// it leaves bound-to-retire loads untouched, so every GDNPEU ordering
	// and the AD orderings of GDMSHR and GIRS stay open; its undo of
	// speculative D-fills does not help because the reordered loads are
	// never speculative. Like the unsafe baseline it escapes GDMSHR VD-VD
	// only because its visible gadget loads cache the reference line.
	allButFences := []string{
		"unsafe", "invisispec-spectre", "invisispec-futuristic",
		"dom", "dom-tso", "safespec-wfb", "safespec-wfc",
		"muontrap", "condspec", "cleanupspec",
	}
	return map[string]map[string]bool{
		key(GadgetNPEU, OrderVDVD): set("unsafe", "invisispec-spectre", "dom", "safespec-wfb", "cleanupspec"),
		key(GadgetNPEU, OrderVDAD): set(allButFences...),
		key(GadgetNPEU, OrderVIAD): set(allButFences...),
		// Note: the unprotected baseline is NOT in the GDMSHR VD-VD set —
		// with no defense the gadget's loads are visible, so the reference
		// load's line is already cached and its LLC access (the "clock")
		// disappears. The paper's Table 1 likewise only lists defended
		// designs here.
		key(GadgetMSHR, OrderVDVD): set("invisispec-spectre", "safespec-wfb"),
		key(GadgetMSHR, OrderVDAD): set("unsafe", "invisispec-spectre", "invisispec-futuristic",
			"safespec-wfb", "safespec-wfc", "muontrap", "cleanupspec"),
		key(GadgetMSHR, OrderVIAD): set("unsafe", "invisispec-spectre", "invisispec-futuristic",
			"safespec-wfb", "safespec-wfc", "muontrap", "cleanupspec"),
		key(GadgetRS, OrderVIAD): set("unsafe", "invisispec-spectre", "invisispec-futuristic",
			"dom", "dom-tso", "cleanupspec"),
	}
}

// key renders a gadget/ordering pair as an ExpectedTable1 map key.
func key(g Gadget, ord Ordering) string { return g.String() + "|" + ord.String() }

// FormatMatrix renders cells as a Table 1-style text table.
func FormatMatrix(cells []MatrixCell) string {
	var b strings.Builder
	byCombo := map[string][]MatrixCell{}
	var order []string
	for _, c := range cells {
		k := key(c.Gadget, c.Ordering)
		if _, seen := byCombo[k]; !seen {
			order = append(order, k)
		}
		byCombo[k] = append(byCombo[k], c)
	}
	fmt.Fprintf(&b, "%-22s %s\n", "Gadget|Ordering", "Vulnerable schemes")
	for _, k := range order {
		var vuln []string
		for _, c := range byCombo[k] {
			if c.Vulnerable {
				vuln = append(vuln, c.Scheme)
			}
		}
		if len(vuln) == 0 {
			vuln = []string{"-"}
		}
		fmt.Fprintf(&b, "%-22s %s\n", k, strings.Join(vuln, ", "))
	}
	return b.String()
}
