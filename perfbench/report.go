package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"text/tabwriter"
)

// runReport runs every workload untraced and then traced, each in a
// fresh process of this binary, and prints the end-to-end metrics with
// their units beside the traced run's breakdown of wall time by layer.
func runReport(stdout, stderr io.Writer, seed uint64, seconds float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var tails []string // each untraced run's wall_s median, tail and sample count
	child := func(w string, trace int) (result, error) {
		cmd := exec.Command(exe, "--workload", w, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		var log bytes.Buffer
		cmd.Stderr = &log
		out, err := cmd.Output()
		if err != nil {
			stderr.Write(log.Bytes())
			return result{}, fmt.Errorf("%s --trace %d: %w", w, trace, err)
		}
		for _, l := range strings.Split(log.String(), "\n") {
			if strings.HasPrefix(l, w+": wall_s ") {
				tails = append(tails, l)
			}
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var r result
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			return result{}, fmt.Errorf("%s --trace %d: %w", w, trace, err)
		}
		return r, nil
	}

	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\twall_s [s]\tcpu_s [s]\tsetup_s [s]\tpeak_rss_mb [MB]\tfailed_frac\t"+
		"traced wall_s [s]\tΣ layer self [s]\tunattributed [s]\ttracing overhead [s]\t")
	var layers []string
	for _, w := range workloads {
		plain, err := child(w.name, 0)
		if err != nil {
			return err
		}
		tr, err := child(w.name, 1)
		if err != nil {
			return err
		}
		layerSum := 0.0
		row := fmt.Sprintf("%s:", w.name)
		for _, l := range []string{layerExperiment, layerRemote, layerResults, layerCore, layerDetect, layerWorkload} {
			v := tr.Metrics["layer."+l+".self_s"].Value
			layerSum += v
			row += fmt.Sprintf(" %s %.4f", l, v)
		}
		layers = append(layers, row)
		failed := float64(plain.Failed+tr.Failed) / float64(plain.Attempted+tr.Attempted)
		pm := plain.Metrics
		fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%.4f\t%.1f\t%.3f\t%.4f\t%.4f\t%.4f\t%+.4f\t\n", w.name,
			pm["wall_s"].Value, pm["cpu_s"].Value, pm["setup_s"].Value, pm["peak_rss_mb"].Value, failed,
			tr.Metrics["trace.wall_s"].Value, layerSum, tr.Metrics["trace.unattributed_s"].Value,
			tr.Metrics["trace.overhead_s"].Value)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\nwall_s [s] per untraced regeneration:")
	for _, l := range tails {
		fmt.Fprintln(stdout, "  "+l)
	}
	fmt.Fprintln(stdout, "\nlayer self time per traced regeneration [s]:")
	for _, row := range layers {
		fmt.Fprintln(stdout, "  "+row)
	}
	return nil
}
