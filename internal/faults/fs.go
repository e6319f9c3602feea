package faults

import (
	"fmt"
	"io/fs"
	"sync"

	"github.com/mar-hbo/hbo/internal/edge/sessiond/snapstore"
)

// FSPlan schedules filesystem faults by zero-based operation index, one
// counter per operation kind. Like the transport Plan's flap windows, the
// schedule is purely deterministic: a given (plan, operation sequence)
// injects exactly the same faults on every run, so crash scenarios are
// replayable in tests.
type FSPlan struct {
	// TornWrites maps a write index to how many bytes reach the file before
	// the write errors — a crash mid-append leaving a torn record.
	TornWrites map[int]int
	// ShortReads maps a read index to the maximum bytes it returns (with a
	// nil error from the fault layer; io semantics surface it as a short
	// read, exactly like a truncated file).
	ShortReads map[int]int
	// CorruptReads maps a read index to a byte offset whose bits are
	// flipped in the returned buffer — silent media corruption.
	CorruptReads map[int]int
	// SyncErrs lists sync indices that fail — a full disk or dying device
	// refusing the fsync.
	SyncErrs map[int]bool
	// OpenErrs lists open indices that fail.
	OpenErrs map[int]bool
}

// FSStats counts operations seen and faults injected.
type FSStats struct {
	Opens, Writes, Reads, Syncs                              int
	OpenErrs, TornWrites, ShortReads, CorruptReads, SyncErrs int
}

// FaultFS wraps a snapstore.FS with scheduled fault injection. Safe for
// concurrent use; operation counters are serialized under one mutex so the
// injection sequence is a deterministic function of operation arrival order.
type FaultFS struct {
	inner snapstore.FS

	mu                          sync.Mutex
	plan                        FSPlan
	stats                       FSStats
	opens, writes, reads, syncs int
}

// NewFaultFS wraps inner (nil means the real filesystem) with plan.
func NewFaultFS(inner snapstore.FS, plan FSPlan) *FaultFS {
	if inner == nil {
		inner = snapstore.OSFS{}
	}
	return &FaultFS{inner: inner, plan: plan}
}

// SetPlan swaps the fault schedule mid-run; operation counters continue.
func (f *FaultFS) SetPlan(plan FSPlan) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.plan = plan
}

// Stats returns a snapshot of the injection counters.
func (f *FaultFS) Stats() FSStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// FSFaultError marks every injected filesystem error, carrying the
// operation kind and index that triggered it.
type FSFaultError struct {
	Op  string
	Idx int
}

func (e *FSFaultError) Error() string {
	return fmt.Sprintf("faults: injected %s error (operation %d)", e.Op, e.Idx)
}

func (f *FaultFS) OpenFile(name string, flag int, perm fs.FileMode) (snapstore.File, error) {
	f.mu.Lock()
	idx := f.opens
	f.opens++
	f.stats.Opens++
	fail := f.plan.OpenErrs[idx]
	if fail {
		f.stats.OpenErrs++
	}
	f.mu.Unlock()
	if fail {
		return nil, &FSFaultError{Op: "open", Idx: idx}
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

func (f *FaultFS) Remove(name string) error                   { return f.inner.Remove(name) }
func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) { return f.inner.ReadDir(name) }
func (f *FaultFS) MkdirAll(name string, perm fs.FileMode) error {
	return f.inner.MkdirAll(name, perm)
}
func (f *FaultFS) Truncate(name string, size int64) error { return f.inner.Truncate(name, size) }

// faultFile threads per-file operations back through the owning FaultFS so
// the schedule indexes span all files in operation order.
type faultFile struct {
	fs    *FaultFS
	inner snapstore.File
}

// Write passes p through unless this write index is scheduled as torn, in
// which case only the scheduled prefix reaches the file and the call errors
// — the on-disk effect of a crash (or full disk) mid-append.
func (ff *faultFile) Write(p []byte) (int, error) {
	ff.fs.mu.Lock()
	idx := ff.fs.writes
	ff.fs.writes++
	ff.fs.stats.Writes++
	keep, torn := ff.fs.plan.TornWrites[idx]
	if torn {
		ff.fs.stats.TornWrites++
	}
	ff.fs.mu.Unlock()
	if !torn {
		return ff.inner.Write(p)
	}
	if keep > len(p) {
		keep = len(p)
	}
	n, err := ff.inner.Write(p[:keep])
	if err != nil {
		return n, err
	}
	return n, &FSFaultError{Op: "write", Idx: idx}
}

// ReadAt reads through the inner file, then applies any scheduled short
// read or byte corruption to what came back.
func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	ff.fs.mu.Lock()
	idx := ff.fs.reads
	ff.fs.reads++
	ff.fs.stats.Reads++
	maxN, short := ff.fs.plan.ShortReads[idx]
	flipAt, corrupt := ff.fs.plan.CorruptReads[idx]
	if short {
		ff.fs.stats.ShortReads++
	}
	if corrupt {
		ff.fs.stats.CorruptReads++
	}
	ff.fs.mu.Unlock()
	n, err := ff.inner.ReadAt(p, off)
	if short && n > maxN {
		n = maxN
		err = nil // a short read with no error: the file just "ended early"
	}
	if corrupt && n > 0 {
		p[flipAt%n] ^= 0xFF
	}
	return n, err
}

func (ff *faultFile) Sync() error {
	ff.fs.mu.Lock()
	idx := ff.fs.syncs
	ff.fs.syncs++
	ff.fs.stats.Syncs++
	fail := ff.fs.plan.SyncErrs[idx]
	if fail {
		ff.fs.stats.SyncErrs++
	}
	ff.fs.mu.Unlock()
	if fail {
		return &FSFaultError{Op: "sync", Idx: idx}
	}
	return ff.inner.Sync()
}

func (ff *faultFile) Close() error { return ff.inner.Close() }
