// Command automdt-bench regenerates the paper's evaluation artifacts
// (Fig. 3, Fig. 4, Fig. 5, Table I, and the ablations) against the
// emulated testbeds.
//
// Usage:
//
//	automdt-bench -exp all                 # everything, quick fidelity
//	automdt-bench -exp fig3 -mode paper    # one experiment, full fidelity
//	automdt-bench -exp chaos -quick -chaos-json BENCH_chaos.json
//
// Experiments: fig3, fig4, fig5-read, fig5-network, fig5-write, table1,
// finetune, ablation-joint, adaptation, ablation-k, chaos, all. Any other
// -exp value exits 2 and lists these.
//
// The transfer engine's own performance is measured by the repo
// benchmark in benchmark/, not here.
//
// The chaos experiment runs the adversarial scenario matrix over the
// live loopback engine: `-exp chaos -quick` is the PR-blocking 3×3
// sub-matrix, `-exp chaos -full` the nightly robustness battery. Each
// cell must complete byte-correct or fail cleanly and resume cheaply;
// -chaos-json writes the per-cell aggregate report (BENCH_chaos.json).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"automdt/internal/experiments"
	"automdt/internal/flight"
	"automdt/internal/metrics"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run")
	modeStr := flag.String("mode", "quick", "fidelity: quick or paper")
	csvDir := flag.String("csv", "", "directory to write per-experiment trace CSVs (optional)")
	metricsPath := flag.String("metrics", "", "file to write a text-format metrics snapshot of the run (optional)")
	flightPath := flag.String("flight", "", "enable the decision flight recorder for the run and dump the trace to this file (\"-\" for stdout; analyze with flightdump)")
	chaosQuick := flag.Bool("quick", false, "chaos experiment: run the PR-blocking 3×3 sub-matrix (the default)")
	chaosFull := flag.Bool("full", false, "chaos experiment: run the full nightly robustness battery")
	chaosJSON := flag.String("chaos-json", "", "file to write the chaos matrix per-cell report (chaos experiment)")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the chaos matrix fault schedules")
	flag.Parse()

	if *chaosQuick && *chaosFull {
		fmt.Fprintln(os.Stderr, "-quick and -full are mutually exclusive")
		os.Exit(2)
	}

	if *flightPath != "" {
		flight.Enable(0)
	}

	mode := experiments.Quick
	if *modeStr == "paper" {
		mode = experiments.Paper
	}

	// snap accumulates headline numbers in the same text format the
	// scheduler daemon serves at /metrics.
	var snap metrics.Snapshot

	// names collects every experiment run() is offered, in order, so an
	// -exp that matched none of them can be refused with the valid list.
	var names []string
	ran := false
	run := func(name string, f func() error) {
		names = append(names, name)
		if *exp != "all" && *exp != name {
			return
		}
		ran = true
		start := time.Now()
		fmt.Printf("\n########## %s ##########\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		snap.Add("bench_duration_seconds", elapsed.Seconds(), metrics.L("exp", name))
		fmt.Printf("[%s took %v]\n", name, elapsed.Round(time.Millisecond))
	}
	recordCompare := func(name string, r *experiments.CompareResult) {
		snap.Add("bench_avg_mbps", r.Auto.Run.AvgMbps,
			metrics.L("exp", name), metrics.L("optimizer", "automdt"))
		snap.Add("bench_avg_mbps", r.Marlin.Run.AvgMbps,
			metrics.L("exp", name), metrics.L("optimizer", "marlin"))
		// TimeToTarget is -1 when the target was never reached; skip the
		// sample rather than export the sentinel as a duration.
		if r.Auto.TimeToTarget >= 0 {
			snap.Add("bench_time_to_target_seconds", r.Auto.TimeToTarget,
				metrics.L("exp", name), metrics.L("optimizer", "automdt"))
		}
		if r.Marlin.TimeToTarget >= 0 {
			snap.Add("bench_time_to_target_seconds", r.Marlin.TimeToTarget,
				metrics.L("exp", name), metrics.L("optimizer", "marlin"))
		}
	}

	writeCSV := func(name string, content string) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		path := *csvDir + "/" + name + ".csv"
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		fmt.Printf("[wrote %s]\n", path)
	}
	compareCSV := func(name string, r *experiments.CompareResult) {
		writeCSV(name+"-automdt", r.Auto.Run.Rec.CSV())
		writeCSV(name+"-marlin", r.Marlin.Run.Rec.CSV())
	}

	run("fig3", func() error {
		r, err := experiments.Fig3(mode)
		if err != nil {
			return err
		}
		experiments.PrintCompare(os.Stdout, r)
		compareCSV("fig3", r)
		recordCompare("fig3", r)
		return nil
	})
	run("fig4", func() error {
		r, err := experiments.Fig4(mode)
		if err != nil {
			return err
		}
		experiments.PrintFig4(os.Stdout, r)
		return nil
	})
	for _, e := range []struct {
		name string
		f    func(experiments.Mode) (*experiments.CompareResult, error)
	}{
		{"fig5-read", experiments.Fig5Read},
		{"fig5-network", experiments.Fig5Network},
		{"fig5-write", experiments.Fig5Write},
	} {
		name := e.name
		run(name, func() error {
			r, err := e.f(mode)
			if err != nil {
				return err
			}
			experiments.PrintCompare(os.Stdout, r)
			compareCSV(name, r)
			recordCompare(name, r)
			return nil
		})
	}
	run("table1", func() error {
		r, err := experiments.Table1(mode)
		if err != nil {
			return err
		}
		experiments.PrintTable1(os.Stdout, r)
		for _, row := range r.Rows {
			ds := metrics.L("dataset", row.Dataset)
			snap.Add("bench_table1_mbps", row.GlobusMbps, ds, metrics.L("optimizer", "globus"))
			snap.Add("bench_table1_mbps", row.MarlinMbps, ds, metrics.L("optimizer", "marlin"))
			snap.Add("bench_table1_mbps", row.AutoMbps, ds, metrics.L("optimizer", "automdt"))
		}
		return nil
	})
	run("finetune", func() error {
		r, err := experiments.FineTune(mode, 120)
		if err != nil {
			return err
		}
		fmt.Printf("offline model:    %.1f mean total threads at %.0f Mbps\n",
			r.BaseMeanThreads, r.BaseMbps)
		fmt.Printf("fine-tuned model: %.1f mean total threads at %.0f Mbps\n",
			r.TunedMeanThreads, r.TunedMbps)
		fmt.Printf("concurrency change: %+.1f%% at %+.1f%% speed\n",
			100*(r.TunedMeanThreads-r.BaseMeanThreads)/r.BaseMeanThreads,
			100*(r.TunedMbps-r.BaseMbps)/r.BaseMbps)
		return nil
	})
	run("ablation-joint", func() error {
		r, err := experiments.AblationJoint(mode)
		if err != nil {
			return err
		}
		fmt.Printf("AutoMDT  %7.0f Mbps\nMarlin   %7.0f Mbps\nJoint-GD %7.0f Mbps (stuck below 90%% of AutoMDT: %v)\n",
			r.AutoMbps, r.MarlinMbps, r.JointMbps, r.JointStuck)
		return nil
	})
	run("adaptation", func() error {
		r, err := experiments.Adaptation(mode)
		if err != nil {
			return err
		}
		experiments.PrintAdaptation(os.Stdout, r)
		return nil
	})
	run("ablation-k", func() error {
		rows := experiments.KSweep([]float64{1.001, 1.005, 1.01, 1.02, 1.05, 1.1, 1.2})
		fmt.Printf("%-8s %-14s %-8s %s\n", "k", "best ⟨r,n,w⟩", "threads", "Mbps")
		for _, r := range rows {
			fmt.Printf("%-8.3f %-14v %-8d %.0f\n", r.K, r.BestThreads, r.TotalThreads, r.Mbps)
		}
		return nil
	})
	run("chaos", func() error {
		matrix := experiments.QuickChaosMatrix(*chaosSeed)
		matrixMode := "quick"
		if *chaosFull {
			matrix = experiments.FullChaosMatrix(*chaosSeed)
			matrixMode = "full"
		}
		rep := experiments.RunChaosMatrix(context.Background(), matrix, matrixMode, os.Stdout)
		experiments.PrintChaosReport(os.Stdout, rep)
		for _, c := range rep.Cells {
			cell := metrics.L("cell", c.Cell)
			if c.GoodputMbps > 0 {
				snap.Add("bench_chaos_goodput_mbps", c.GoodputMbps, cell)
			}
			snap.Add("bench_chaos_attempts", float64(c.Attempts), cell)
			snap.Add("bench_chaos_replan_events", float64(c.ReplanEvents), cell)
			snap.Add("bench_chaos_resent_bytes", float64(c.ResentBytes+c.ResentCommitted), cell)
			snap.Add("bench_chaos_ledger_bytes", float64(c.LedgerBytes), cell)
		}
		if *chaosJSON != "" {
			data, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*chaosJSON, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("[wrote %s]\n", *chaosJSON)
		}
		if !rep.Pass {
			failed := 0
			for _, c := range rep.Cells {
				if !c.Pass {
					failed++
				}
			}
			return fmt.Errorf("chaos matrix failed: %d of %d cells broke their invariant", failed, len(rep.Cells))
		}
		return nil
	})

	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; valid: %s, all\n", *exp, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *metricsPath != "" {
		if err := os.WriteFile(*metricsPath, []byte(snap.Text()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("[wrote %s]\n", *metricsPath)
	}
	if *flightPath != "" {
		if err := flight.Default().WriteTrace(*flightPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *flightPath != "-" {
			fmt.Printf("[wrote %s]\n", *flightPath)
		}
	}
}
