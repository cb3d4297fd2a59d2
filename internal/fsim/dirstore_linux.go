package fsim

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
)

// rootDir is the descriptor a DirStore holds for its root directory. The
// first Open or Create opens it; every later one resolves its name
// relative to it with openat, so the kernel walks only the components
// below the root.
type rootDir struct {
	mu sync.Mutex
	fd atomic.Int32 // the descriptor + 1; 0 until opened
}

// eintr calls fn until it fails with something other than EINTR.
func eintr(fn func() error) error {
	for {
		if err := fn(); err != syscall.EINTR {
			return err
		}
	}
}

// dirFD returns the root's descriptor, opening it on first use. A failed
// open is not remembered: the root of a DirStore built without
// NewDirStore may not exist until Create makes it. The descriptor is
// closed once the DirStore is unreachable.
func (d *DirStore) dirFD() (int, error) {
	if fd := d.root.fd.Load(); fd != 0 {
		return int(fd - 1), nil
	}
	d.root.mu.Lock()
	defer d.root.mu.Unlock()
	if fd := d.root.fd.Load(); fd != 0 {
		return int(fd - 1), nil
	}
	var fd int
	err := eintr(func() (err error) {
		fd, err = syscall.Open(d.Root, syscall.O_RDONLY|syscall.O_DIRECTORY|syscall.O_CLOEXEC, 0)
		return err
	})
	if err != nil {
		return -1, err
	}
	d.root.fd.Store(int32(fd) + 1)
	runtime.AddCleanup(d, func(fd int) { syscall.Close(fd) }, fd)
	return fd, nil
}

// openat opens rel, a name rel has checked, under the root. Errors are
// *os.PathError naming the full path, as os.OpenFile's are.
func (d *DirStore) openat(rel string, flag int, perm uint32) (*fdFile, error) {
	dirfd, err := d.dirFD()
	var fd int
	if err == nil {
		err = eintr(func() (err error) {
			fd, err = syscall.Openat(dirfd, rel, flag|syscall.O_CLOEXEC, perm)
			return err
		})
		// The root descriptor must outlive the openat that uses it.
		runtime.KeepAlive(d)
	}
	if err != nil {
		return nil, &os.PathError{Op: "open", Path: filepath.Join(d.Root, rel), Err: err}
	}
	return &fdFile{fd: fd, root: d.Root, name: rel}, nil
}

// Open implements Store.
func (d *DirStore) Open(name string, size int64) (FileReader, error) {
	rel, err := d.rel(name)
	if err != nil {
		return nil, err
	}
	f, err := d.openat(rel, syscall.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Create implements Store. The file is sized to size so concurrent
// WriteAt calls cannot race on extension; an existing file of the same
// size is left untouched, which keeps its contents and is what lets a
// resumed session write only the missing chunk ranges. Parent
// directories are made only when the open finds them missing.
func (d *DirStore) Create(name string, size int64) (FileWriter, error) {
	rel, err := d.rel(name)
	if err != nil {
		return nil, err
	}
	f, err := d.openat(rel, syscall.O_CREAT|syscall.O_RDWR, 0o644)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(filepath.Join(d.Root, rel)), 0o755); err != nil {
			return nil, err
		}
		f, err = d.openat(rel, syscall.O_CREAT|syscall.O_RDWR, 0o644)
	}
	if err != nil {
		return nil, err
	}
	if err := f.resize(size); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// maxRW caps one pread or pwrite below Linux's per-call limit of
// 0x7ffff000 bytes, so a short read can only mean the end of the file.
const maxRW = 1 << 30

var errNegativeOffset = errors.New("negative offset")

// fdFile is an open regular file as a bare descriptor: ReadAt and WriteAt
// are one pread or pwrite each, with none of *os.File's poller setup,
// finalizer or close bookkeeping. Close must not run concurrently with
// ReadAt or WriteAt, and nothing closes a handle its owner forgot: the
// engine's file table closes each handle once no worker holds it.
type fdFile struct {
	fd   int
	root string // the DirStore's root, for error messages only
	name string // the name under root
}

// err wraps a failure of op as an *os.PathError naming the full path.
func (f *fdFile) err(op string, err error) error {
	return &os.PathError{Op: op, Path: filepath.Join(f.root, f.name), Err: err}
}

// ReadAt implements io.ReaderAt. A short read is the end of the file: it
// returns the bytes read and io.EOF.
func (f *fdFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, f.err("readat", errNegativeOffset)
	}
	n := 0
	for n < len(p) {
		want := min(len(p)-n, maxRW)
		var m int
		err := eintr(func() (err error) {
			m, err = syscall.Pread(f.fd, p[n:n+want], off+int64(n))
			return err
		})
		if err != nil {
			return n, f.err("read", err)
		}
		n += m
		if m < want {
			return n, io.EOF
		}
	}
	return n, nil
}

// WriteAt implements io.WriterAt.
func (f *fdFile) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, f.err("writeat", errNegativeOffset)
	}
	n := 0
	for n < len(p) {
		var m int
		err := eintr(func() (err error) {
			m, err = syscall.Pwrite(f.fd, p[n:min(len(p), n+maxRW)], off+int64(n))
			return err
		})
		if err == nil && m == 0 {
			err = io.ErrShortWrite
		}
		if err != nil {
			return n, f.err("write", err)
		}
		n += m
	}
	return n, nil
}

// resize truncates or extends the file to size unless it has that size
// already.
func (f *fdFile) resize(size int64) error {
	var st syscall.Stat_t
	if err := eintr(func() error { return syscall.Fstat(f.fd, &st) }); err != nil {
		return f.err("stat", err)
	}
	if st.Size == size {
		return nil
	}
	if err := eintr(func() error { return syscall.Ftruncate(f.fd, size) }); err != nil {
		return f.err("truncate", err)
	}
	return nil
}

// Close releases the descriptor. A second Close reports os.ErrClosed
// rather than closing a number the kernel may have handed out again.
func (f *fdFile) Close() error {
	if f.fd < 0 {
		return f.err("close", os.ErrClosed)
	}
	fd := f.fd
	f.fd = -1
	// Linux frees the descriptor even when close reports EINTR, so EINTR
	// is neither retried nor reported.
	if err := syscall.Close(fd); err != nil && err != syscall.EINTR {
		return f.err("close", err)
	}
	return nil
}
