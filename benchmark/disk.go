package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"automdt/internal/fsim"
	"automdt/internal/transfer"
	"automdt/internal/workload"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const chunkBytes = 256 << 10 // transfer.Config's default chunk size

// diskWorkload is bulk_disk and small_files: one dataset of real files
// moved DirStore→DirStore over loopback TCP again and again, one
// transfer at a time.
//
// The destination tree is created once and overwritten in place: a
// transfer into a fresh directory pays first-touch page faults that make
// it 3–10× slower and bimodal on this host (see README.md). So that an
// engine which silently wrote nothing cannot pass, the harness scribbles
// over the head of every destination chunk before each transfer and
// checks every destination file's CRC-32C after it, both outside the
// timer.
type diskWorkload struct {
	name     string
	seed     int64
	root     string // scratch directory of this run
	files    int
	size     int64
	tail     float64
	manifest workload.Manifest

	src, dst *fsim.DirStore
	sums     []uint32   // CRC-32C of every source file
	dstFiles []*os.File // kept open for scribbling and verifying
	arena    *transfer.Arena
	buf      []byte
	setups   int
	opN      int
}

func newBulkDisk(seed int64, root string) *diskWorkload {
	return &diskWorkload{name: "bulk_disk", seed: seed, root: root, files: 8, size: 64 << 20, tail: 0.80}
}

func newSmallFiles(seed int64, root string) *diskWorkload {
	return &diskWorkload{name: "small_files", seed: seed, root: root, files: 4096, size: 4 << 10, tail: 0.90}
}

func (w *diskWorkload) tailPct() float64                       { return w.tail }
func (w *diskWorkload) arenaOf() *transfer.Arena               { return w.arena }
func (w *diskWorkload) clients() int                           { return 1 }
func (w *diskWorkload) extraLayers(map[string]float64, *phase) {}

// splitmix64 is the generator behind every file's content.
func splitmix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (w *diskWorkload) setup() error {
	// Both ends keep every file open until the session ends, and the
	// harness keeps the destination files open too.
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err == nil && lim.Cur < uint64(3*w.files+64) {
		return fmt.Errorf("%s: RLIMIT_NOFILE is %d, need at least %d (3 × %d files + sockets): raise `ulimit -n`",
			w.name, lim.Cur, 3*w.files+64, w.files)
	}
	w.setups++
	dir := filepath.Join(w.root, fmt.Sprintf("%s-%d", w.name, w.setups))
	var err error
	if w.src, err = fsim.NewDirStore(filepath.Join(dir, "src")); err != nil {
		return err
	}
	if w.dst, err = fsim.NewDirStore(filepath.Join(dir, "dst")); err != nil {
		return err
	}
	w.arena = transfer.NewArena(transfer.DefaultArenaBytes)
	w.buf = make([]byte, 1<<20)
	w.manifest = make(workload.Manifest, w.files)
	w.sums = make([]uint32, w.files)
	w.dstFiles = make([]*os.File, w.files)
	zeros := make([]byte, len(w.buf))
	for i := range w.manifest {
		name := fmt.Sprintf("s%d/%s-%05d.dat", w.seed, w.name, i)
		w.manifest[i] = workload.File{Name: name, Size: w.size}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(w.src.Root, name)), 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(w.src.Root, name))
		if err != nil {
			return err
		}
		state := uint64(w.seed)<<32 ^ uint64(i)
		var sum uint32
		for left := w.size; left > 0; {
			b := w.buf[:min(left, int64(len(w.buf)))]
			for o := 0; o+8 <= len(b); o += 8 {
				binary.LittleEndian.PutUint64(b[o:], splitmix64(&state))
			}
			if _, err := f.Write(b); err != nil {
				f.Close()
				return err
			}
			sum = crc32.Update(sum, castagnoli, b)
			left -= int64(len(b))
		}
		if err := f.Close(); err != nil {
			return err
		}
		w.sums[i] = sum

		// Allocate the destination file's blocks now, by writing it.
		if err := os.MkdirAll(filepath.Dir(filepath.Join(w.dst.Root, name)), 0o755); err != nil {
			return err
		}
		d, err := os.OpenFile(filepath.Join(w.dst.Root, name), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		w.dstFiles[i] = d
		for left, off := w.size, int64(0); left > 0; {
			b := zeros[:min(left, int64(len(zeros)))]
			if _, err := d.WriteAt(b, off); err != nil {
				return err
			}
			left -= int64(len(b))
			off += int64(len(b))
		}
	}
	// One untimed warm-up transfer: arena, page cache, listener paths.
	warm := newPhase(1, false, w.arena)
	if s := w.op(warm); s.failed {
		return fmt.Errorf("%s: warm-up transfer: %s", w.name, s.err)
	}
	return nil
}

func (w *diskWorkload) teardown() error {
	for _, f := range w.dstFiles {
		if f != nil {
			f.Close()
		}
	}
	w.dstFiles = nil
	return os.RemoveAll(filepath.Dir(w.src.Root))
}

// scribble overwrites the first 64 bytes of every destination chunk.
func (w *diskWorkload) scribble() error {
	junk := w.buf[:64]
	for i := range junk {
		junk[i] = 0xA5
	}
	for _, f := range w.dstFiles {
		for off := int64(0); off < w.size; off += chunkBytes {
			if _, err := f.WriteAt(junk[:min(64, w.size-off)], off); err != nil {
				return err
			}
		}
	}
	return nil
}

// verify checks every destination file against its source's CRC-32C.
func (w *diskWorkload) verify() error {
	for i, f := range w.dstFiles {
		var sum uint32
		for off := int64(0); off < w.size; {
			n, err := f.ReadAt(w.buf[:min(w.size-off, int64(len(w.buf)))], off)
			sum = crc32.Update(sum, castagnoli, w.buf[:n])
			off += int64(n)
			if err == io.EOF && off == w.size {
				break
			}
			if err != nil {
				return fmt.Errorf("read back %s: %w", w.manifest[i].Name, err)
			}
		}
		if sum != w.sums[i] {
			return fmt.Errorf("%s: destination CRC-32C %08x, source %08x", w.manifest[i].Name, sum, w.sums[i])
		}
	}
	return nil
}

func (w *diskWorkload) run(ph *phase, budget time.Duration) {
	for ph.more(budget) {
		ph.add(w.op(ph))
	}
}

// op is one transfer of the whole dataset.
func (w *diskWorkload) op(ph *phase) opSample {
	w.opN++
	session := fmt.Sprintf("%s-s%d-%d-%d", w.name, w.seed, w.setups, w.opN)
	s := opSample{bytes: w.manifest.TotalBytes(), files: w.files}
	if err := w.scribble(); err != nil {
		s.failed, s.err = true, err.Error()
		return s
	}
	cfg := transfer.Config{InitialThreads: 2, MaxThreads: 8, SessionID: session, Arena: w.arena}
	var src, dst fsim.Store = w.src, w.dst
	hk := newOpHooks(ph)
	cfg.Hooks = hk.hooks()
	var ot *opTrace
	endRoot := func() {}
	if ph.tr != nil {
		ot = &opTrace{t: ph.tr, c: ph.c, op: session}
		src = &sourceStore{inner: w.src, ot: ot}
		dst = &destStore{inner: w.dst, opOf: func(string) *opTrace { return ot }}
		cfg.WrapConn = ot.wrapConn
		endRoot = ph.tr.begin(session)
	}
	ph.resume()
	t0 := time.Now()
	res, err := transfer.Loopback(context.Background(), cfg, w.manifest, src, dst, nil)
	t1 := time.Now()
	ph.suspend()
	s.wall = t1.Sub(t0)
	hk.close(t0, t1, ot, res)
	endRoot()
	if err == nil {
		err = w.verify()
	}
	if err != nil {
		s.failed, s.err = true, err.Error()
	}
	return s
}
