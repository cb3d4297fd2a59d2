package transfer

import (
	"context"
	"fmt"

	"automdt/internal/env"
	"automdt/internal/fsim"
	"automdt/internal/workload"
)

// Loopback runs a complete sender→receiver transfer in-process over
// 127.0.0.1 TCP, returning the sender-side result. It is the harness used
// by tests, benchmarks, and examples to evaluate optimizers on the
// emulated testbed.
func Loopback(ctx context.Context, cfg Config, m workload.Manifest,
	src, dst fsim.Store, ctrl env.Controller) (*Result, error) {

	recv := NewReceiver(cfg, dst)
	if err := recv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	rctx, rcancel := context.WithCancel(ctx)
	defer rcancel()
	recvErr := make(chan error, 1)
	go func() { recvErr <- recv.ServeN(rctx, 1) }()

	send := &Sender{Cfg: cfg, Store: src, Manifest: m, Controller: ctrl}
	res, err := send.Run(ctx, recv.Addr())
	if err != nil {
		// A sender that dies before its session negotiated leaves the
		// receiver with nothing to fail; cancel it rather than waiting on
		// the outer ctx (session teardown still persists the ledger).
		rcancel()
		<-recvErr
		return nil, err
	}
	if rerr := <-recvErr; rerr != nil {
		return res, fmt.Errorf("transfer: receiver: %w", rerr)
	}
	return res, nil
}
