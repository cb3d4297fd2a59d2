//go:build !linux

package fsim

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// rootDir holds nothing off Linux: names are joined onto Root and opened
// by full path.
type rootDir struct{}

// openFile opens p as a plain blocking descriptor: one open(2) and the
// one fcntl(F_GETFL) os.NewFile spends learning that the descriptor
// blocks. os.OpenFile would spend four more fcntl calls and an epoll_ctl
// that fails on a regular file, which is most of a small file's cost.
// Errors are *os.PathError, as os.OpenFile's are.
func openFile(p string, flag int, perm uint32) (*os.File, error) {
	for {
		fd, err := syscall.Open(p, flag|syscall.O_CLOEXEC, perm)
		if err == nil {
			return os.NewFile(uintptr(fd), p), nil
		}
		if err != syscall.EINTR {
			return nil, &os.PathError{Op: "open", Path: p, Err: err}
		}
	}
}

// Open implements Store.
func (d *DirStore) Open(name string, size int64) (FileReader, error) {
	p, err := d.path(name)
	if err != nil {
		return nil, err
	}
	return openFile(p, syscall.O_RDONLY, 0)
}

// Create implements Store. The file is sized to size so concurrent
// WriteAt calls cannot race on extension; an existing file of the same
// size is left untouched, which keeps its contents and is what lets a
// resumed session write only the missing chunk ranges. Parent
// directories are made only when the open finds them missing.
func (d *DirStore) Create(name string, size int64) (FileWriter, error) {
	p, err := d.path(name)
	if err != nil {
		return nil, err
	}
	f, err := openFile(p, syscall.O_CREAT|syscall.O_RDWR, 0o644)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return nil, err
		}
		f, err = openFile(p, syscall.O_CREAT|syscall.O_RDWR, 0o644)
	}
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err == nil && fi.Size() != size {
		err = f.Truncate(size)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}
