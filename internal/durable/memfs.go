package durable

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// ErrCrashed is returned by every MemFS operation after an injected crash:
// the "process" is dead as far as the durability layer is concerned, and
// nothing else reaches the disk until Reboot.
var ErrCrashed = errors.New("durable: filesystem crashed (injected)")

// ErrInjectedSyncFailure is the error an injected fsync failure returns.
// Like a real EIO from fsync, the data's durability is unknown — the WAL
// treats it as fatal and never re-acknowledges (fsyncgate semantics).
var ErrInjectedSyncFailure = errors.New("durable: injected fsync failure")

// FaultPlan configures MemFS fault injection. IO points are counted
// across Write, Sync, Rename and SyncDir calls in order; the counter
// starts at 1. The zero plan injects nothing.
type FaultPlan struct {
	// CrashAtIO kills the filesystem at the Nth IO point: a Write applies
	// only a seeded prefix of its bytes (a torn write), a Sync fails
	// before making anything durable, a Rename fails before taking
	// effect, a SyncDir fails before pinning any directory entry. Every
	// later operation returns ErrCrashed. 0 disables.
	CrashAtIO uint64
	// TornSeed seeds how many unsynced bytes each file retains across
	// Reboot — the adversarial model where unfsynced page-cache data
	// partially survives a crash, leaving torn tail records.
	TornSeed uint64
	// ShortWriteEveryN makes every Nth Write (at IO points that are
	// multiples of N) write only half its bytes and return
	// io.ErrShortWrite, like a real short write. 0 disables.
	ShortWriteEveryN uint64
	// FailSyncAtIO makes the Sync at that IO point return
	// ErrInjectedSyncFailure without syncing. 0 disables.
	FailSyncAtIO uint64
	// LyingSync makes every Sync report success and persist nothing: the
	// disk that acknowledges a write-back it never did. A crash then keeps
	// none of a file's unsynced bytes, torn tail included — the cache the
	// disk lied about is lost whole — so it loses every write the WAL
	// acknowledged on it, which the crash checker must catch.
	LyingSync bool
}

// memFile is one file's durable state: data is everything written, synced
// is the prefix known durable (advanced by Sync).
type memFile struct {
	data   []byte
	synced int
}

// MemFS is an in-memory FS with fsync-accurate crash semantics: bytes are
// durable only once Sync succeeds, and an injected crash discards (most
// of) the unsynced suffix. Directory entries are modeled too: a file
// created, renamed, or removed is only durably so after SyncDir, exactly
// like a real filesystem — a crash reverts un-fsynced metadata (new files
// vanish, renames undo, removed files resurrect), so a protocol that
// skips a directory fsync fails the crash sweep instead of passing
// silently. It is safe for concurrent use.
type MemFS struct {
	mu      sync.Mutex
	files   map[string]*memFile // live view (what List/Open see)
	dir     map[string]*memFile // durable directory entries (what a crash keeps)
	plan    FaultPlan
	ioCount uint64
	crashed bool
}

// NewMemFS creates a MemFS with the given fault plan (zero plan = none).
func NewMemFS(plan FaultPlan) *MemFS {
	return &MemFS{files: map[string]*memFile{}, dir: map[string]*memFile{}, plan: plan}
}

// Crashed reports whether the injected crash has fired.
func (m *MemFS) Crashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashed
}

// IOCount returns how many IO points have occurred.
func (m *MemFS) IOCount() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ioCount
}

// Kill crashes the filesystem immediately — the explicit-kill analogue
// of FaultPlan.CrashAtIO, for harnesses that script failures on a
// wall-clock timeline (the swarmchaos bench, the heal fuzzer) instead of
// at a counted IO point. Every later operation returns ErrCrashed, with
// the same unsynced-data semantics as a counted crash; Reboot revives
// the disk.
func (m *MemFS) Kill() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashed = true
}

// Reboot simulates the post-crash restart: the directory reverts to its
// last SyncDir'd state (un-pinned creates vanish, renames undo, removes
// resurrect), every surviving file keeps its synced prefix plus a
// TornSeed-determined portion of its unsynced tail (torn tail), open
// handles are dead, and the fault plan is cleared so recovery runs on a
// healthy disk. It also works without a prior crash (clean restart:
// unsynced data survives intact is NOT assumed — the torn model applies
// only after a crash, so a clean Reboot keeps everything).
func (m *MemFS) Reboot() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		m.files = map[string]*memFile{}
		for name, f := range m.dir {
			keep := 0
			if !m.plan.LyingSync {
				keep = tornKeep(m.plan.TornSeed, name, len(f.data)-f.synced)
			}
			f.data = f.data[:f.synced+keep]
			f.synced = len(f.data)
			m.files[name] = f
		}
	}
	m.dir = map[string]*memFile{}
	for name, f := range m.files {
		m.dir[name] = f
	}
	m.crashed = false
	m.plan = FaultPlan{}
	m.ioCount = 0
}

// tornKeep decides how many of n unsynced bytes survive the crash —
// deterministic in (seed, name).
func tornKeep(seed uint64, name string, n int) int {
	if n == 0 {
		return 0
	}
	h := seed*0x9E3779B97F4A7C15 + 0x123456789
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001B3
	}
	return int(h % uint64(n+1))
}

// RawData returns a copy of a file's current bytes (test helper for the
// torn-write matrix).
func (m *MemFS) RawData(name string) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[name]
	if f == nil {
		return nil
	}
	return append([]byte(nil), f.data...)
}

// SetRawData replaces a file's bytes and marks them (and the directory
// entry) durable — a test helper for constructing corrupted on-disk
// states byte by byte.
func (m *MemFS) SetRawData(name string, data []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{data: append([]byte(nil), data...), synced: len(data)}
	m.files[name] = f
	m.dir[name] = f
}

// ioPoint advances the fault counters. It returns crash=true if the crash
// fires at this point.
func (m *MemFS) ioPoint() (crash bool) {
	m.ioCount++
	return m.plan.CrashAtIO != 0 && m.ioCount == m.plan.CrashAtIO
}

type memHandle struct {
	fs   *MemFS
	name string
	rpos int
	rdon bool // opened read-only
}

// Create implements FS.
func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	m.files[name] = &memFile{}
	return &memHandle{fs: m, name: name}, nil
}

// OpenAppend implements FS.
func (m *MemFS) OpenAppend(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	if m.files[name] == nil {
		m.files[name] = &memFile{}
	}
	return &memHandle{fs: m, name: name}, nil
}

// Open implements FS.
func (m *MemFS) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	if m.files[name] == nil {
		return nil, fmt.Errorf("durable: open %s: no such file", name)
	}
	return &memHandle{fs: m, name: name, rdon: true}, nil
}

// Rename implements FS.
func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	if m.ioPoint() {
		m.crashed = true
		return ErrCrashed
	}
	f := m.files[oldname]
	if f == nil {
		return fmt.Errorf("durable: rename %s: no such file", oldname)
	}
	delete(m.files, oldname)
	m.files[newname] = f
	return nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	delete(m.files, name)
	return nil
}

// SyncDir implements FS: directory entries under dir (creates, renames,
// removes) become durable. File contents are untouched — they still need
// File.Sync, as on a real filesystem.
func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	if m.ioPoint() {
		m.crashed = true
		return ErrCrashed
	}
	prefix := dir
	if prefix != "" && !strings.HasSuffix(prefix, "/") {
		prefix += "/"
	}
	for name := range m.dir {
		if strings.HasPrefix(name, prefix) {
			if _, ok := m.files[name]; !ok {
				delete(m.dir, name)
			}
		}
	}
	for name, f := range m.files {
		if strings.HasPrefix(name, prefix) {
			m.dir[name] = f
		}
	}
	return nil
}

// List implements FS. MemFS is flat: every file whose path starts with
// dir is listed by base name.
func (m *MemFS) List(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	prefix := dir
	if prefix != "" && !strings.HasSuffix(prefix, "/") {
		prefix += "/"
	}
	var names []string
	for name := range m.files {
		if strings.HasPrefix(name, prefix) {
			names = append(names, strings.TrimPrefix(name, prefix))
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll implements FS (a no-op: MemFS is flat).
func (m *MemFS) MkdirAll(string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	return nil
}

// Write implements File with short-write and crash injection.
func (h *memHandle) Write(p []byte) (int, error) {
	m := h.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return 0, ErrCrashed
	}
	if h.rdon {
		return 0, fmt.Errorf("durable: write %s: read-only handle", h.name)
	}
	f := m.files[h.name]
	if f == nil {
		return 0, fmt.Errorf("durable: write %s: file removed", h.name)
	}
	if m.ioPoint() {
		// Torn write: a seeded prefix lands, then the world ends.
		m.crashed = true
		n := tornKeep(m.plan.TornSeed, h.name, len(p))
		f.data = append(f.data, p[:n]...)
		return n, ErrCrashed
	}
	if n := m.plan.ShortWriteEveryN; n != 0 && m.ioCount%n == 0 && len(p) > 1 {
		half := len(p) / 2
		f.data = append(f.data, p[:half]...)
		return half, io.ErrShortWrite
	}
	f.data = append(f.data, p...)
	return len(p), nil
}

// Sync implements File: on success the file's whole current content is
// durable.
func (h *memHandle) Sync() error {
	m := h.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	f := m.files[h.name]
	if f == nil {
		return fmt.Errorf("durable: sync %s: file removed", h.name)
	}
	if m.ioPoint() {
		m.crashed = true
		return ErrCrashed
	}
	if m.plan.FailSyncAtIO != 0 && m.ioCount == m.plan.FailSyncAtIO {
		return ErrInjectedSyncFailure
	}
	if !m.plan.LyingSync {
		f.synced = len(f.data)
	}
	return nil
}

// Read implements File (sequential).
func (h *memHandle) Read(p []byte) (int, error) {
	m := h.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return 0, ErrCrashed
	}
	f := m.files[h.name]
	if f == nil {
		return 0, fmt.Errorf("durable: read %s: file removed", h.name)
	}
	if h.rpos >= len(f.data) {
		return 0, io.EOF
	}
	n := copy(p, f.data[h.rpos:])
	h.rpos += n
	return n, nil
}

// Close implements File.
func (h *memHandle) Close() error { return nil }
