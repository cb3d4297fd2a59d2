// Command flightdump analyzes a decision flight trace: the JSON written
// by `automdt-xfer send -flight`, `automdt-bench -flight`, or fetched
// from a daemon's GET /v1/debug/flight.
//
//	flightdump trace.json            # per-source summary + top moments
//	flightdump -top 20 trace.json
//	flightdump -source sched:arbiter trace.json
//	flightdump -json trace.json      # filtered events back out as JSON
//	curl -s localhost:8080/v1/debug/flight | flightdump -
//
// The per-source summary ranks the sources with scored events (the
// scheduler arbiter's admissions and rebalances) by cumulative regret
// and lists every other source's event counts by kind; the moments view
// names the individual scored decisions that cost the most, which is
// where "fleet P99 was bad" turns into "the arbiter starved job 7".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"automdt/internal/flight"
)

func main() {
	top := flag.Int("top", 10, "how many top-regret moments to show")
	source := flag.String("source", "", "restrict to one source (e.g. sched:arbiter)")
	kind := flag.String("kind", "", "restrict to one event kind (decision, admission, rebalance, cap, replan, place, replace)")
	asJSON := flag.Bool("json", false, "emit the filtered events as JSON instead of the report")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: flightdump [-top N] [-source S] [-kind K] [-json] <trace.json | ->")
		os.Exit(2)
	}

	var rd io.Reader = os.Stdin
	if path := flag.Arg(0); path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		rd = f
	}
	trace, err := flight.ReadTrace(rd)
	if err != nil {
		fatal(err)
	}
	if *source != "" || *kind != "" {
		kept := trace.Events[:0]
		for _, ev := range trace.Events {
			if (*source == "" || ev.Source == *source) && (*kind == "" || ev.Kind == *kind) {
				kept = append(kept, ev)
			}
		}
		trace.Events = kept
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(trace); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Print(flight.Render(trace, *top))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
