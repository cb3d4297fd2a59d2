package fsim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Store is an offset-addressable file container. Implementations must be
// safe for concurrent use.
type Store interface {
	// Open returns a reader for the named file of the given size.
	Open(name string, size int64) (FileReader, error)
	// Create returns a writer for the named file of the given size.
	Create(name string, size int64) (FileWriter, error)
}

// FileReader reads file content at arbitrary offsets.
type FileReader interface {
	io.ReaderAt
	io.Closer
}

// FileWriter writes file content at arbitrary offsets.
type FileWriter interface {
	io.WriterAt
	io.Closer
}

// Stater is an optional Store capability: report a file's current size.
// The resumable-session control plane uses it to detect a destination
// that went missing or was truncated between attempts before trusting a
// persisted chunk ledger. A missing file yields os.ErrNotExist (wrapped).
type Stater interface {
	Stat(name string) (size int64, err error)
}

// LedgerStore is an optional Store capability: persist small
// control-plane documents (chunk ledgers) alongside the data, so an
// interrupted transfer session survives a process restart and can resume
// against the same destination. Session names must satisfy
// ValidSessionID. A missing ledger yields os.ErrNotExist (wrapped).
type LedgerStore interface {
	SaveLedger(session string, data []byte) error
	LoadLedger(session string) ([]byte, error)
	RemoveLedger(session string) error
}

// LedgerAppender is an optional LedgerStore capability: an append-only
// journal alongside each session's ledger document, so a probe tick
// persists only the chunk commits since the last tick instead of
// rewriting the whole document (O(delta), not O(chunks)). Appends are
// durable (fsync'd) before they return; ResetJournal discards the
// journal after its records have been folded into a fresh snapshot
// (compaction). A missing journal loads as empty, not as an error.
type LedgerAppender interface {
	AppendLedger(session string, data []byte) error
	LoadJournal(session string) ([]byte, error)
	ResetJournal(session string) error
}

// LedgerInfo describes one persisted session ledger for enumeration.
type LedgerInfo struct {
	Session string
	// Age is how long ago the ledger was last written.
	Age time.Duration
}

// LedgerLister is an optional LedgerStore capability: enumerate the
// persisted session ledgers and their ages, so a long-lived destination
// endpoint can expire sessions that were abandoned rather than resumed.
type LedgerLister interface {
	ListLedgers() ([]LedgerInfo, error)
}

// ValidSessionID reports whether s is safe to use as a ledger key on any
// backend (non-empty, ≤ 128 bytes, [A-Za-z0-9._-] only — in particular
// no path separators).
func ValidSessionID(s string) bool {
	if s == "" || len(s) > 128 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	// Reject dot-only names (".", "..") that path-join into surprises.
	for i := 0; i < len(s); i++ {
		if s[i] != '.' {
			return true
		}
	}
	return false
}

// SyntheticStore serves deterministic pseudo-random content derived from
// (file name, offset) without storing anything, and verifies written
// content against the same generator when Verify is set. It emulates the
// paper's randomly generated datasets at any scale.
type SyntheticStore struct {
	// Verify makes writers check incoming bytes against the expected
	// deterministic content and report corruption on Close.
	Verify bool

	mu        sync.Mutex
	written   map[string]int64 // bytes written per file
	sizes     map[string]int64 // declared size per created file
	ledgers   map[string][]byte
	journals  map[string][]byte    // append-only ledger journals
	ledgerAge map[string]time.Time // last ledger write per session
	errs      []error
}

// NewSyntheticStore creates an empty synthetic store.
func NewSyntheticStore() *SyntheticStore {
	return &SyntheticStore{
		written:   make(map[string]int64),
		sizes:     make(map[string]int64),
		ledgers:   make(map[string][]byte),
		journals:  make(map[string][]byte),
		ledgerAge: make(map[string]time.Time),
	}
}

// contentByte returns the deterministic content byte of file h at
// position i. It must be fast: it is called for every generated byte.
func contentByte(h uint64, i int64) byte {
	x := h + uint64(i)*0x9E3779B97F4A7C15
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	return byte(x >> 56)
}

// nameHash hashes a file name to a content seed.
func nameHash(name string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(name))
	return f.Sum64()
}

// FillContent writes the deterministic content of the named file for
// [off, off+len(p)) into p. Exposed so tests and writers can recompute
// expected bytes.
func FillContent(name string, off int64, p []byte) {
	h := nameHash(name)
	for i := range p {
		p[i] = contentByte(h, off+int64(i))
	}
}

// Open implements Store.
func (s *SyntheticStore) Open(name string, size int64) (FileReader, error) {
	if size < 0 {
		return nil, fmt.Errorf("fsim: negative size %d for %q", size, name)
	}
	return &synthReader{h: nameHash(name), size: size}, nil
}

// Create implements Store.
func (s *SyntheticStore) Create(name string, size int64) (FileWriter, error) {
	s.mu.Lock()
	s.sizes[name] = size
	s.mu.Unlock()
	return &synthWriter{store: s, name: name, h: nameHash(name), size: size}, nil
}

// Stat implements Stater: a synthetic file exists once Create declared
// it, at its declared size (content is derived, never stored).
func (s *SyntheticStore) Stat(name string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	size, ok := s.sizes[name]
	if !ok {
		return 0, fmt.Errorf("fsim: %q: %w", name, os.ErrNotExist)
	}
	return size, nil
}

// SaveLedger implements LedgerStore in memory: a synthetic destination
// can resume only within the lifetime of this store value, which is what
// in-process restart tests exercise.
func (s *SyntheticStore) SaveLedger(session string, data []byte) error {
	if !ValidSessionID(session) {
		return fmt.Errorf("fsim: invalid session id %q", session)
	}
	s.mu.Lock()
	s.ledgers[session] = append([]byte(nil), data...)
	s.ledgerAge[session] = time.Now()
	s.mu.Unlock()
	return nil
}

// LoadLedger implements LedgerStore.
func (s *SyntheticStore) LoadLedger(session string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.ledgers[session]
	if !ok {
		return nil, fmt.Errorf("fsim: ledger %q: %w", session, os.ErrNotExist)
	}
	return append([]byte(nil), data...), nil
}

// RemoveLedger implements LedgerStore, dropping the journal with the
// document.
func (s *SyntheticStore) RemoveLedger(session string) error {
	s.mu.Lock()
	delete(s.ledgers, session)
	delete(s.journals, session)
	delete(s.ledgerAge, session)
	s.mu.Unlock()
	return nil
}

// AppendLedger implements LedgerAppender in memory (durability matches
// SaveLedger: the lifetime of this store value).
func (s *SyntheticStore) AppendLedger(session string, data []byte) error {
	if !ValidSessionID(session) {
		return fmt.Errorf("fsim: invalid session id %q", session)
	}
	s.mu.Lock()
	s.journals[session] = append(s.journals[session], data...)
	s.ledgerAge[session] = time.Now()
	s.mu.Unlock()
	return nil
}

// LoadJournal implements LedgerAppender; a session with no journal
// loads as empty.
func (s *SyntheticStore) LoadJournal(session string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.journals[session]...), nil
}

// ResetJournal implements LedgerAppender.
func (s *SyntheticStore) ResetJournal(session string) error {
	s.mu.Lock()
	delete(s.journals, session)
	s.mu.Unlock()
	return nil
}

// ListLedgers implements LedgerLister: ages are measured from the last
// SaveLedger within this store value's lifetime.
func (s *SyntheticStore) ListLedgers() ([]LedgerInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	var out []LedgerInfo
	for session := range s.ledgers {
		out = append(out, LedgerInfo{Session: session, Age: now.Sub(s.ledgerAge[session])})
	}
	return out, nil
}

// WrittenBytes reports the total bytes written to the named file.
func (s *SyntheticStore) WrittenBytes(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.written[name]
}

// TotalWritten reports the bytes written across all files.
func (s *SyntheticStore) TotalWritten() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, v := range s.written {
		n += v
	}
	return n
}

// Errors returns verification errors accumulated by writers.
func (s *SyntheticStore) Errors() []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]error(nil), s.errs...)
}

type synthReader struct {
	h    uint64
	size int64
}

func (r *synthReader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("fsim: negative offset")
	}
	if off >= r.size {
		return 0, io.EOF
	}
	n := len(p)
	if off+int64(n) > r.size {
		n = int(r.size - off)
	}
	for i := 0; i < n; i++ {
		p[i] = contentByte(r.h, off+int64(i))
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (r *synthReader) Close() error { return nil }

type synthWriter struct {
	store *SyntheticStore
	name  string
	h     uint64
	size  int64
}

func (w *synthWriter) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > w.size {
		return 0, fmt.Errorf("fsim: write [%d,%d) outside file %q of size %d",
			off, off+int64(len(p)), w.name, w.size)
	}
	if w.store.Verify {
		for i, b := range p {
			if want := contentByte(w.h, off+int64(i)); b != want {
				err := fmt.Errorf("fsim: corruption in %q at offset %d: got %#x want %#x",
					w.name, off+int64(i), b, want)
				w.store.mu.Lock()
				w.store.errs = append(w.store.errs, err)
				w.store.mu.Unlock()
				return 0, err
			}
		}
	}
	w.store.mu.Lock()
	w.store.written[w.name] += int64(len(p))
	w.store.mu.Unlock()
	return len(p), nil
}

func (w *synthWriter) Close() error { return nil }

// DirStore stores files under a real directory. Used by the CLI tools for
// genuine disk-to-disk transfers.
type DirStore struct {
	Root string
}

// NewDirStore creates the directory if needed and returns a store over it.
func NewDirStore(root string) (*DirStore, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return &DirStore{Root: root}, nil
}

func (d *DirStore) path(name string) (string, error) {
	clean := filepath.Clean(name)
	if filepath.IsAbs(clean) || clean == ".." || len(clean) >= 3 && clean[:3] == ".."+string(filepath.Separator) {
		return "", fmt.Errorf("fsim: invalid file name %q", name)
	}
	return filepath.Join(d.Root, clean), nil
}

// Open implements Store.
func (d *DirStore) Open(name string, size int64) (FileReader, error) {
	p, err := d.path(name)
	if err != nil {
		return nil, err
	}
	return os.Open(p)
}

// Create implements Store. The file is pre-sized so concurrent WriteAt
// calls cannot race on extension; reopening an existing file of the same
// size keeps its contents, which is what lets a resumed session write
// only the missing chunk ranges.
func (d *DirStore) Create(name string, size int64) (FileWriter, error) {
	p, err := d.path(name)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(p, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Stat implements Stater.
func (d *DirStore) Stat(name string) (int64, error) {
	p, err := d.path(name)
	if err != nil {
		return 0, err
	}
	fi, err := os.Stat(p)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// ledgerDir is where DirStore persists session control-plane state,
// under the store root so it travels with the data. Each session owns a
// subdirectory so per-session documents can never collide and a
// session's control state is removed as one unit:
//
//	.automdt/<session>/ledger.bin    binary snapshot
//	.automdt/<session>/journal.bin   append-only journal extending it
const ledgerDir = ".automdt"

// Per-session file names inside a session directory.
const (
	snapshotFile = "ledger.bin"
	journalFile  = "journal.bin"
)

// sessionDir maps a session id to its control-state directory.
func (d *DirStore) sessionDir(session string) (string, error) {
	if !ValidSessionID(session) {
		return "", fmt.Errorf("fsim: invalid session id %q", session)
	}
	return filepath.Join(d.Root, ledgerDir, session), nil
}

// SaveLedger implements LedgerStore: write-to-temp, fsync, then rename,
// so a crash mid-save leaves the previous ledger intact rather than a
// torn document.
func (d *DirStore) SaveLedger(session string, data []byte) error {
	dir, err := d.sessionDir(session)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	p := filepath.Join(dir, snapshotFile)
	tmp := p + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, p); err != nil {
		return err
	}
	// Make the rename itself durable before returning: compaction
	// truncates the journal only after this call succeeds, and without
	// the directory fsync a power loss could persist that truncate but
	// not this rename — resurrecting the old snapshot with no journal.
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a preceding rename/create/unlink in it
// is durable across power loss, not merely ordered in the page cache.
// Best-effort: some filesystems reject directory fsync, and the
// fallback there is the caller's crash-safety story (re-send, never
// corruption).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// journalPath maps a session id to its append-only journal path.
func (d *DirStore) journalPath(session string) (string, error) {
	dir, err := d.sessionDir(session)
	if err != nil {
		return "", err
	}
	return filepath.Join(dir, journalFile), nil
}

// AppendLedger implements LedgerAppender: an O_APPEND write followed by
// fsync, so an acknowledged journal record survives a crash. A torn
// tail from a crash mid-append is detected (and truncated away) by the
// caller's per-record framing on replay.
func (d *DirStore) AppendLedger(session string, data []byte) error {
	p, err := d.journalPath(session)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	_, statErr := os.Stat(p)
	created := os.IsNotExist(statErr)
	f, err := os.OpenFile(p, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if created {
		// The first append after a compaction creates the file; its
		// directory entry must be durable too before the records count
		// as acknowledged.
		syncDir(filepath.Dir(p))
	}
	return nil
}

// LoadJournal implements LedgerAppender; a session with no journal
// loads as empty.
func (d *DirStore) LoadJournal(session string) ([]byte, error) {
	p, err := d.journalPath(session)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return nil, nil
	}
	return data, err
}

// ResetJournal implements LedgerAppender (post-compaction truncate).
func (d *DirStore) ResetJournal(session string) error {
	p, err := d.journalPath(session)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		return err
	}
	syncDir(filepath.Dir(p))
	return nil
}

// LoadLedger implements LedgerStore.
func (d *DirStore) LoadLedger(session string) ([]byte, error) {
	dir, err := d.sessionDir(session)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(filepath.Join(dir, snapshotFile))
}

// RemoveLedger implements LedgerStore by removing the session's whole
// directory — snapshot, journal, and anything a crashed save left
// behind. Removing an absent ledger is not an error (completion and
// cleanup race benignly).
func (d *DirStore) RemoveLedger(session string) error {
	dir, err := d.sessionDir(session)
	if err != nil {
		return err
	}
	return os.RemoveAll(dir)
}

// ListLedgers implements LedgerLister. Ages come from file modification
// times.
func (d *DirStore) ListLedgers() ([]LedgerInfo, error) {
	entries, err := os.ReadDir(filepath.Join(d.Root, ledgerDir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	now := time.Now()
	var out []LedgerInfo
	for _, e := range entries {
		if !e.IsDir() || !ValidSessionID(e.Name()) {
			continue // stray file or unrelated entry
		}
		dir := filepath.Join(d.Root, ledgerDir, e.Name())
		// Age is the most recent write across the session's files: a
		// long transfer appends to the journal for hours between
		// snapshot compactions, and must not look abandoned.
		var newest time.Time
		for _, name := range []string{snapshotFile, journalFile} {
			if fi, err := os.Stat(filepath.Join(dir, name)); err == nil && fi.ModTime().After(newest) {
				newest = fi.ModTime()
			}
		}
		if newest.IsZero() {
			continue // session dir without a document yet, or racing removal
		}
		out = append(out, LedgerInfo{Session: e.Name(), Age: now.Sub(newest)})
	}
	return out, nil
}
