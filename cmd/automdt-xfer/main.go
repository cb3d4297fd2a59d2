// Command automdt-xfer runs a real sender/receiver transfer over TCP with
// a pluggable optimizer — the production phase of §IV-F.
//
// Receiver endpoint (one listener serving a fleet of senders; both data
// and control connections dial its one address):
//
//	automdt-xfer serve -addr :9000 -dir /staging/dst \
//	    -sessions 0 -max-sessions 64
//
// -sessions N exits after N sessions finish (1 for a one-shot receiver);
// 0 serves until interrupted.
// Stale session ledgers in -dir older than -ledger-ttl are expired when
// the endpoint starts.
//
// Ledger inspection and offline compaction for a destination directory:
//
//	automdt-xfer ledger -dir /staging/dst                  # list sessions
//	automdt-xfer ledger -dir /staging/dst -session s-01    # one session
//	automdt-xfer ledger -dir /staging/dst -session s-01 -compact
//
// Sender (source DTN):
//
//	automdt-xfer send -addr host:9000 \
//	    -files 100 -size 8388608 -optimizer marlin
//
// With -optimizer automdt, pass -model and -profile written by
// automdt-train. Use -dir on the sender to transfer a real directory
// instead of synthetic files.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"automdt/internal/core"
	"automdt/internal/env"
	"automdt/internal/flight"
	"automdt/internal/fsim"
	"automdt/internal/marlin"
	"automdt/internal/probe"
	"automdt/internal/rl"
	"automdt/internal/static"
	"automdt/internal/transfer"
	"automdt/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		serve(os.Args[2:])
	case "send":
		send(os.Args[2:])
	case "ledger":
		ledgerCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: automdt-xfer {serve|send|ledger} [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func engineConfig(fs *flag.FlagSet) *transfer.Config {
	cfg := &transfer.Config{}
	fs.IntVar(&cfg.ChunkBytes, "chunk", 256<<10, "chunk size in bytes")
	fs.Int64Var(&cfg.SenderBufBytes, "sendbuf", 64<<20, "sender staging bytes")
	fs.Int64Var(&cfg.ReceiverBufBytes, "recvbuf", 64<<20, "receiver staging bytes")
	fs.IntVar(&cfg.MaxThreads, "maxthreads", 32, "per-stage concurrency bound")
	fs.IntVar(&cfg.Conns, "conns", 0, "data connections to stripe chunks across (0 = one)")
	fs.DurationVar(&cfg.ProbeInterval, "interval", 250*time.Millisecond, "probe interval")
	fs.IntVar(&cfg.InitialThreads, "initial", 1, "initial concurrency")
	fs.Float64Var(&cfg.Shaping.ReadPerThreadMbps, "cap-read", 0, "per-thread read cap (Mbps, 0=off)")
	fs.Float64Var(&cfg.Shaping.NetPerStreamMbps, "cap-net", 0, "per-stream network cap (Mbps, 0=off)")
	fs.Float64Var(&cfg.Shaping.WritePerThreadMbps, "cap-write", 0, "per-thread write cap (Mbps, 0=off)")
	fs.Float64Var(&cfg.Shaping.LinkMbps, "cap-link", 0, "aggregate link cap (Mbps, 0=off)")
	return cfg
}

// recvStore builds serve's destination store.
func recvStore(dir string, verify bool) fsim.Store {
	if dir != "" {
		ds, err := fsim.NewDirStore(dir)
		if err != nil {
			fatal(err)
		}
		return ds
	}
	ss := fsim.NewSyntheticStore()
	ss.Verify = verify
	return ss
}

// serve runs the multi-session endpoint: one listener serving up to
// -max-sessions concurrent senders, each with its own isolated session
// (staging, write pool, ledger).
func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":9000", "listen address (data and control)")
	dir := fs.String("dir", "", "destination directory (empty = synthetic sink)")
	verify := fs.Bool("verify", false, "verify synthetic content (synthetic sink only)")
	sessions := fs.Int("sessions", 0, "exit after N sessions finish (0 = serve until interrupted)")
	cfg := engineConfig(fs)
	fs.IntVar(&cfg.MaxSessions, "max-sessions", 0, "concurrent-session admission cap (0 = default 64)")
	fs.Float64Var(&cfg.WriteBudgetMbps, "write-budget-mbps", 0, "endpoint write budget in Mbps, split max-min fair across active sessions (0 = unarbitrated)")
	fs.DurationVar(&cfg.LedgerTTL, "ledger-ttl", 0, "expire session ledgers older than this on start (0 = default 30 days, negative disables)")
	fs.Parse(args)

	r := transfer.NewReceiver(*cfg, recvStore(*dir, *verify))
	r.OnSessionDone = func(res transfer.SessionResult) {
		if res.Err != nil {
			fmt.Printf("session %s failed: %v\n", res.SessionID, res.Err)
			return
		}
		fmt.Printf("session %s complete: %d bytes committed\n", res.SessionID, res.CommittedBytes)
	}
	if err := r.Listen(*addr); err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("serving: %s (cap %d sessions)\n", r.Addr(), r.Cfg.MaxSessions)
	var err error
	if *sessions > 0 {
		err = r.ServeN(ctx, *sessions)
	} else {
		err = r.Serve(ctx)
	}
	if err != nil && ctx.Err() == nil {
		fatal(err)
	}
	fmt.Println("endpoint shut down")
}

func send(args []string) {
	fs := flag.NewFlagSet("send", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9000", "receiver address")
	dir := fs.String("dir", "", "source directory (empty = synthetic files)")
	files := fs.Int("files", 16, "synthetic file count")
	size := fs.Int64("size", 8<<20, "synthetic file size in bytes")
	opt := fs.String("optimizer", "static", "optimizer: static, marlin, automdt, none")
	cc := fs.Int("cc", 4, "static concurrency")
	model := fs.String("model", "", "automdt agent checkpoint (from automdt-train)")
	profilePath := fs.String("profile", "", "automdt probed profile JSON (from automdt-train)")
	flightPath := fs.String("flight", "", "record the decision flight trace and dump it to this file after the run (\"-\" for stdout; analyze with flightdump)")
	cfg := engineConfig(fs)
	fs.StringVar(&cfg.SessionID, "session", "", "resumable session id (re-run with the same id to resume; receiver needs -dir)")
	fs.Parse(args)
	if *flightPath != "" {
		flight.Enable(0)
	}

	var store fsim.Store
	var manifest workload.Manifest
	if *dir != "" {
		ds, err := fsim.NewDirStore(*dir)
		if err != nil {
			fatal(err)
		}
		store = ds
		m, err := manifestFromDir(*dir)
		if err != nil {
			fatal(err)
		}
		manifest = m
	} else {
		store = fsim.NewSyntheticStore()
		manifest = workload.LargeFiles(*files, *size)
	}

	var controller env.Controller
	switch *opt {
	case "none":
	case "static":
		controller = static.New(*cc)
	case "marlin":
		controller = marlin.New()
	case "automdt":
		if *model == "" || *profilePath == "" {
			fatal(fmt.Errorf("automdt optimizer needs -model and -profile"))
		}
		pj, err := os.ReadFile(*profilePath)
		if err != nil {
			fatal(err)
		}
		var p probe.Profile
		if err := json.Unmarshal(pj, &p); err != nil {
			fatal(err)
		}
		f, err := os.Open(*model)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		// The checkpoint architecture must match; quick-mode training
		// (the automdt-train default) uses the small network.
		sys, err := core.LoadSystem(f, &p, core.Options{
			MaxThreads: cfg.MaxThreads,
			Net:        rl.NetConfig{Hidden: 32, PolicyBlocks: 1, ValueBlocks: 1},
		})
		if err != nil {
			fatal(err)
		}
		controller = sys.Controller()
	default:
		fatal(fmt.Errorf("unknown optimizer %q", *opt))
	}

	s := &transfer.Sender{Cfg: *cfg, Store: store, Manifest: manifest, Controller: controller}
	fmt.Printf("sending %d files (%d bytes) via %s optimizer...\n",
		len(manifest), manifest.TotalBytes(), *opt)
	res, err := s.Run(context.Background(), *addr)
	if *flightPath != "" {
		// Dump even on failure: an aborted run's trace is exactly when the
		// decision record matters.
		if derr := flight.Default().WriteTrace(*flightPath); derr != nil {
			fmt.Fprintln(os.Stderr, derr)
		} else if *flightPath != "-" {
			fmt.Printf("flight trace written to %s\n", *flightPath)
		}
	}
	if err != nil {
		fatal(err)
	}
	if res.Resumed {
		fmt.Printf("resumed session %s: skipped %d committed bytes\n", res.SessionID, res.SkippedBytes)
	}
	fmt.Printf("done: %d bytes in %v (%.0f Mbps)\n", res.Bytes, res.Duration.Round(time.Millisecond), res.AvgMbps)
}

// ledgerCmd inspects and maintains the session ledgers of a resumable
// destination directory. Without -session it lists every persisted
// session; with one it prints the session's full state (snapshot +
// journal folded together); with -compact it folds the journal into a
// fresh binary snapshot and truncates it — the offline counterpart of
// the receiver's automatic compaction, useful before archiving a
// destination or after a crash left a long journal behind.
func ledgerCmd(args []string) {
	fs := flag.NewFlagSet("ledger", flag.ExitOnError)
	dir := fs.String("dir", "", "destination directory holding .automdt session state (required)")
	session := fs.String("session", "", "session id to inspect (empty = list all)")
	compact := fs.Bool("compact", false, "fold the session's journal into a fresh snapshot (needs -session)")
	fs.Parse(args)
	if *dir == "" {
		fatal(fmt.Errorf("ledger: -dir is required"))
	}
	if *compact && *session == "" {
		fatal(fmt.Errorf("ledger: -compact needs -session"))
	}
	ds, err := fsim.NewDirStore(*dir)
	if err != nil {
		fatal(err)
	}

	// loadState reads a session's document once and folds in its
	// journal, returning the decoded state plus the raw sizes (one read
	// per file — a 4M-chunk snapshot is ~16 MB, not worth reading twice).
	loadState := func(session string) (l *transfer.Ledger, rawLen, journalLen int, err error) {
		raw, err := ds.LoadLedger(session)
		if err != nil {
			return nil, 0, 0, err
		}
		l, err = transfer.DecodeLedger(raw)
		if err != nil {
			return nil, 0, 0, err
		}
		journal, _ := ds.LoadJournal(session)
		l.ReplayJournal(journal)
		return l, len(raw), len(journal), nil
	}

	if *session == "" {
		infos, err := ds.ListLedgers()
		if err != nil {
			fatal(err)
		}
		if len(infos) == 0 {
			fmt.Println("no session ledgers")
			return
		}
		fmt.Printf("%-24s %10s %14s %14s %8s\n", "session", "age", "committed", "total", "files")
		for _, info := range infos {
			l, _, _, err := loadState(info.Session)
			if err != nil {
				fmt.Printf("%-24s unreadable: %v\n", info.Session, err)
				continue
			}
			var total int64
			for _, f := range l.Files {
				total += f.Size
			}
			fmt.Printf("%-24s %10s %14d %14d %8d\n",
				info.Session, info.Age.Round(time.Second),
				l.CommittedBytes(), total, len(l.Files))
		}
		return
	}

	l, rawLen, journalLen, err := loadState(*session)
	if err != nil {
		fatal(fmt.Errorf("ledger: load %s: %w", *session, err))
	}
	var total int64
	for _, f := range l.Files {
		total += f.Size
	}
	fmt.Printf("session:      %s\n", l.SessionID)
	fmt.Printf("chunk bytes:  %d\n", l.ChunkBytes)
	fmt.Printf("checksums:    %v\n", l.HasSums)
	fmt.Printf("files:        %d\n", len(l.Files))
	fmt.Printf("committed:    %d / %d bytes (%.1f%%), %d chunks\n",
		l.CommittedBytes(), total, 100*float64(l.CommittedBytes())/max(float64(total), 1), l.CommittedChunks())
	fmt.Printf("snapshot:     %d bytes\n", rawLen)
	fmt.Printf("journal:      %d bytes\n", journalLen)
	if !*compact {
		return
	}
	snap := l.EncodeV2()
	if err := ds.SaveLedger(*session, snap); err != nil {
		fatal(err)
	}
	if err := ds.ResetJournal(*session); err != nil {
		fatal(err)
	}
	fmt.Printf("compacted:    %d journal bytes folded into a %d-byte snapshot\n", journalLen, len(snap))
}

// manifestFromDir lists regular files under root, relative to it,
// skipping the .automdt control-plane sidecar directory (a directory
// that once served as a resumable destination must not ship its
// ledgers).
func manifestFromDir(root string) (workload.Manifest, error) {
	var m workload.Manifest
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			if info.Name() == ".automdt" {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		m = append(m, workload.File{Name: rel, Size: info.Size()})
		return nil
	})
	return m, err
}
