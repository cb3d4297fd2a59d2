package transfer

import (
	"context"
	"runtime/pprof"
)

// Stage labels for CPU profiles. Every stage goroutine sets its label
// stage=<name> with pprof.SetGoroutineLabels when it starts, and the
// goroutines it starts inherit it, so a profile taken from the daemon's
// -pprof endpoint or by `go test -cpuprofile` splits CPU by stage:
// `go tool pprof -tagfocus stage=write`. The label contexts are built
// once; setting one is a pointer store, and nothing is done per chunk.
var (
	stageRead    = stageLabel("read")    // sender read workers and recovery re-reads
	stageNetTx   = stageLabel("net-tx")  // sender network workers
	stageNetRx   = stageLabel("net-rx")  // receiver data-connection readers
	stageWrite   = stageLabel("write")   // receiver write workers
	stageControl = stageLabel("control") // control loops and readers, both ends
	stagePersist = stageLabel("persist") // receiver ledger writes on the session goroutine (rsession.persist)
)

func stageLabel(name string) context.Context {
	return pprof.WithLabels(context.Background(), pprof.Labels("stage", name))
}
