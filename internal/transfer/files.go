package transfer

import (
	"io"
	"sync"
)

// fileTable holds one session end's open file handles, one slot per
// manifest file. A handle is opened by the first worker that needs the
// file, under that file's lock only, and closed once the file is done
// and no worker holds it. Open descriptors are therefore bounded by the
// files with work in flight, not by the manifest.
type fileTable[H io.Closer] struct {
	open  func(id uint32) (H, error)
	slots []fileSlot[H]
}

type fileSlot[H io.Closer] struct {
	mu     sync.Mutex
	h      H
	users  int32
	isOpen bool
	done   bool
}

func newFileTable[H io.Closer](files int, open func(id uint32) (H, error)) *fileTable[H] {
	return &fileTable[H]{open: open, slots: make([]fileSlot[H], files)}
}

// acquire returns file id's handle, opening it if no worker holds it,
// and counts the caller as a user until its release.
func (t *fileTable[H]) acquire(id uint32) (H, error) {
	s := &t.slots[id]
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.isOpen {
		h, err := t.open(id)
		if err != nil {
			return h, err
		}
		s.h, s.isOpen = h, true
	}
	s.users++
	return s.h, nil
}

// release ends one use of file id's handle; done marks the file as
// having no work left, and stays set. The handle is closed once the file
// is done and unused, and the close error is returned to the releaser
// that closed it.
func (t *fileTable[H]) release(id uint32, done bool) error {
	s := &t.slots[id]
	s.mu.Lock()
	defer s.mu.Unlock()
	s.users--
	s.done = s.done || done
	if !s.done || s.users > 0 || !s.isOpen {
		return nil
	}
	return s.close()
}

// closeAll closes every handle still open, dropping close errors: it is
// the teardown of a session that did not finish its files.
func (t *fileTable[H]) closeAll() {
	for i := range t.slots {
		s := &t.slots[i]
		s.mu.Lock()
		if s.isOpen {
			s.close()
		}
		s.mu.Unlock()
	}
}

func (s *fileSlot[H]) close() error {
	h := s.h
	var zero H
	s.h, s.isOpen = zero, false
	return h.Close()
}
