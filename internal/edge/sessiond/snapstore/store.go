package snapstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Record framing inside a segment file:
//
//	magic      u32  "HBSL" (0x4842534C)
//	payloadLen u32  length of the payload that follows
//	crc        u32  IEEE CRC-32 of the payload
//	payload:   op u8 (1=put, 2=delete), idLen u16, id bytes, blob bytes
//
// Segments are named seg-%08d.log and replayed in ascending sequence order;
// within a segment, records apply in append order, and the latest record
// for an id wins. That single invariant makes every crash point safe: a
// torn tail is skipped (and truncated away), and a compaction interrupted
// at any instant leaves either the old segments, the old plus a partial
// rewrite, or both old and complete rewrite — all of which replay to the
// same live state.
const (
	recordMagic = 0x4842534C // "HBSL"
	headerSize  = 12

	opPut    = 1
	opDelete = 2

	// maxRecordBytes bounds one framed record; anything larger in a scan is
	// treated as corruption rather than a 4 GiB allocation.
	maxRecordBytes = 16 << 20
	// maxStoreIDLen bounds stored ids (sessiond's own cap is far smaller).
	maxStoreIDLen = 1024
)

// segName formats the filename for a segment sequence number.
func segName(seq uint64) string { return fmt.Sprintf("seg-%08d.log", seq) }

// segSeq parses a segment filename, reporting ok=false for foreign files.
func segSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	var seq uint64
	if _, err := fmt.Sscanf(name, "seg-%08d.log", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// recordSize is the on-disk footprint of one framed record.
func recordSize(id string, blob []byte) int64 {
	return int64(headerSize + 1 + 2 + len(id) + len(blob))
}

// appendRecord frames one operation onto buf.
func appendRecord(buf []byte, op byte, id string, blob []byte) []byte {
	payloadLen := 1 + 2 + len(id) + len(blob)
	buf = binary.LittleEndian.AppendUint32(buf, recordMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(payloadLen))
	payload := make([]byte, 0, payloadLen)
	payload = append(payload, op)
	payload = binary.LittleEndian.AppendUint16(payload, uint16(len(id)))
	payload = append(payload, id...)
	payload = append(payload, blob...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// RecoveryStats reports what Open's scan found and repaired.
type RecoveryStats struct {
	// Segments is how many segment files were scanned.
	Segments int
	// Records is how many valid records were applied.
	Records int
	// CorruptSegments counts segments whose scan stopped early at a torn or
	// corrupt record; later records in such a segment are unreachable and
	// the affected sessions fall back to replay.
	CorruptSegments int
	// TornTailBytes is how many bytes were truncated off the active
	// segment's invalid tail so appends resume on a clean boundary.
	TornTailBytes int64
}

// Options tunes the file store.
type Options struct {
	// Fsync syncs the active segment after every append (and always after
	// rotation and compaction). Off, durability extends only to the OS page
	// cache — a process kill loses nothing, a host power cut may.
	Fsync bool
	// SegmentBytes rotates the active segment once it reaches this size.
	// Zero means 1 MiB.
	SegmentBytes int64
}

// FileStore is an append-only segmented-log blob store keyed by session id.
// Safe for concurrent use. All mutating state is guarded by mu; compaction
// runs inline under it, on the Put or Delete whose garbage trips it.
type FileStore struct {
	fs   FS
	dir  string
	opts Options

	mu         sync.Mutex //hbo:lockleaf the store IS the serialization point: single-writer append log, I/O under mu by design
	blobs      map[string][]byte
	liveBytes  int64
	totalBytes int64
	activeSeq  uint64
	active     File
	activeSize int64
	segments   map[uint64]int64 // sealed + active segment sizes
	recovery   RecoveryStats
	closed     bool
}

// Open loads (or creates) a file store rooted at dir. A nil fsys means the
// real filesystem. The recovery scan replays every segment in sequence
// order, stops a segment's scan at the first torn or corrupt record rather
// than failing the boot, and truncates the active segment's invalid tail so
// new appends land on a clean record boundary.
func Open(fsys FS, dir string, opts Options) (*FileStore, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 1 << 20
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapstore: mkdir %s: %w", dir, err)
	}
	s := &FileStore{
		fs:       fsys,
		dir:      dir,
		opts:     opts,
		blobs:    make(map[string][]byte),
		segments: make(map[uint64]int64),
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("snapstore: readdir %s: %w", dir, err)
	}
	var seqs []uint64
	sizes := make(map[uint64]int64)
	for _, e := range entries {
		seq, ok := segSeq(e.Name())
		if !ok || e.IsDir() {
			continue
		}
		info, ierr := e.Info()
		if ierr != nil {
			return nil, fmt.Errorf("snapstore: stat %s: %w", e.Name(), ierr)
		}
		seqs = append(seqs, seq)
		sizes[seq] = info.Size()
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })

	for i, seq := range seqs {
		good, serr := s.scanSegment(seq, sizes[seq])
		if serr != nil {
			return nil, serr
		}
		s.recovery.Segments++
		if good < sizes[seq] {
			s.recovery.CorruptSegments++
			if i == len(seqs)-1 {
				// Active segment: cut the torn tail so appends resume on a
				// record boundary. Earlier segments are sealed history; their
				// tails are left alone (compaction will retire them).
				if terr := s.fs.Truncate(filepath.Join(dir, segName(seq)), good); terr != nil {
					return nil, fmt.Errorf("snapstore: truncate torn tail of %s: %w", segName(seq), terr)
				}
				s.recovery.TornTailBytes = sizes[seq] - good
				sizes[seq] = good
			}
		}
		s.segments[seq] = sizes[seq]
		s.totalBytes += sizes[seq]
	}
	for id, blob := range s.blobs {
		s.liveBytes += recordSize(id, blob)
	}
	if len(seqs) > 0 {
		s.activeSeq = seqs[len(seqs)-1]
		s.activeSize = sizes[s.activeSeq]
	}
	f, err := fsys.OpenFile(filepath.Join(dir, segName(s.activeSeq)), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("snapstore: open active segment: %w", err)
	}
	s.active = f
	if _, ok := s.segments[s.activeSeq]; !ok {
		s.segments[s.activeSeq] = 0
	}
	return s, nil
}

// scanSegment replays one segment into the in-memory index and returns the
// byte offset of the last valid record boundary. Scan errors inside the
// data are not fatal — the offset simply stops early — but an unreadable
// file is.
func (s *FileStore) scanSegment(seq uint64, size int64) (int64, error) {
	name := filepath.Join(s.dir, segName(seq))
	f, err := s.fs.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		return 0, fmt.Errorf("snapstore: open %s: %w", segName(seq), err)
	}
	defer f.Close()
	buf := make([]byte, size)
	n, _ := f.ReadAt(buf, 0) // a short read scans like a torn tail
	buf = buf[:n]

	off := 0
	for {
		if len(buf)-off < headerSize {
			return int64(off), nil
		}
		if binary.LittleEndian.Uint32(buf[off:]) != recordMagic {
			return int64(off), nil
		}
		payloadLen := int(binary.LittleEndian.Uint32(buf[off+4:]))
		if payloadLen < 3 || payloadLen > maxRecordBytes || len(buf)-off-headerSize < payloadLen {
			return int64(off), nil
		}
		crc := binary.LittleEndian.Uint32(buf[off+8:])
		payload := buf[off+headerSize : off+headerSize+payloadLen]
		if crc32.ChecksumIEEE(payload) != crc {
			return int64(off), nil
		}
		op := payload[0]
		idLen := int(binary.LittleEndian.Uint16(payload[1:]))
		if idLen > maxStoreIDLen || 3+idLen > payloadLen {
			return int64(off), nil
		}
		id := string(payload[3 : 3+idLen])
		blob := payload[3+idLen:]
		switch op {
		case opPut:
			s.blobs[id] = append([]byte(nil), blob...)
		case opDelete:
			delete(s.blobs, id)
		default:
			return int64(off), nil
		}
		s.recovery.Records++
		off += headerSize + payloadLen
	}
}

// Recovery returns what Open's scan found and repaired.
func (s *FileStore) Recovery() RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// append writes one framed record to the active segment, rotating first if
// the segment is full. On a write error the active segment is sealed and a
// fresh one opened, because the scanner cannot see past a torn record — new
// appends must never land behind one.
func (s *FileStore) append(op byte, id string, blob []byte) error {
	if s.closed {
		return fmt.Errorf("snapstore: store is closed")
	}
	if len(id) == 0 || len(id) > maxStoreIDLen {
		return fmt.Errorf("snapstore: id length %d out of [1,%d]", len(id), maxStoreIDLen)
	}
	if recordSize(id, blob) > maxRecordBytes {
		return fmt.Errorf("snapstore: record of %d bytes over cap %d", recordSize(id, blob), maxRecordBytes)
	}
	if s.activeSize >= s.opts.SegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	rec := appendRecord(nil, op, id, blob)
	n, err := s.active.Write(rec)
	s.activeSize += int64(n)
	s.segments[s.activeSeq] = s.activeSize
	s.totalBytes += int64(n)
	if err == nil && n < len(rec) {
		err = fmt.Errorf("snapstore: short write (%d of %d bytes)", n, len(rec))
	}
	if err != nil {
		// The segment now ends in a torn record; seal it and move on so the
		// next append is reachable by the recovery scan.
		rerr := s.rotateLocked()
		if rerr != nil {
			return fmt.Errorf("snapstore: append failed (%w) and rotation failed (%v)", err, rerr)
		}
		return fmt.Errorf("snapstore: append: %w", err)
	}
	if s.opts.Fsync {
		if err := s.active.Sync(); err != nil {
			return fmt.Errorf("snapstore: fsync: %w", err)
		}
	}
	return nil
}

// rotateLocked seals the active segment and opens the next sequence.
func (s *FileStore) rotateLocked() error {
	if s.active != nil {
		if s.opts.Fsync {
			_ = s.active.Sync()
		}
		_ = s.active.Close()
		s.active = nil
	}
	seq := s.activeSeq + 1
	f, err := s.fs.OpenFile(filepath.Join(s.dir, segName(seq)), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("snapstore: rotate to %s: %w", segName(seq), err)
	}
	s.activeSeq, s.active, s.activeSize = seq, f, 0
	s.segments[seq] = 0
	return nil
}

// Put durably records id → blob (write-ahead: the append happens before the
// in-memory index is updated, so an error leaves the index unchanged).
func (s *FileStore) Put(id string, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.append(opPut, id, blob); err != nil {
		return err
	}
	if old, ok := s.blobs[id]; ok {
		s.liveBytes -= recordSize(id, old)
	}
	cp := append([]byte(nil), blob...)
	s.blobs[id] = cp
	s.liveBytes += recordSize(id, cp)
	s.maybeCompactLocked()
	return nil
}

// Get returns a copy of the stored blob for id, with ok=false when absent.
func (s *FileStore) Get(id string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	blob, ok := s.blobs[id]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), blob...), true, nil
}

// Delete durably removes id (a tombstone record; compaction drops it).
// Deleting an absent id is a no-op.
func (s *FileStore) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.blobs[id]
	if !ok {
		return nil
	}
	if err := s.append(opDelete, id, nil); err != nil {
		return err
	}
	delete(s.blobs, id)
	s.liveBytes -= recordSize(id, old)
	s.maybeCompactLocked()
	return nil
}

// IDs lists stored session ids in sorted order.
func (s *FileStore) IDs() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.blobs))
	for id := range s.blobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

// Len reports how many blobs are live.
func (s *FileStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blobs)
}

// SizeBytes reports the on-disk footprint across all segments (live +
// not-yet-compacted garbage).
func (s *FileStore) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totalBytes
}

// maybeCompactLocked compacts, inline, once the garbage (dead record
// bytes) exceeds both one segment's worth and the live data itself — i.e.
// when at least half the log is rewrite-able away. The write that trips it
// has already succeeded, so a failed compaction is not its error: the old
// segments still hold every record, and the next tripping write retries.
func (s *FileStore) maybeCompactLocked() {
	garbage := s.totalBytes - s.liveBytes
	if garbage < s.opts.SegmentBytes || garbage < s.liveBytes {
		return
	}
	_ = s.compactLocked()
}

// Compact rewrites all live blobs into a fresh segment and removes every
// older one. Crash-safe at any instant by later-wins replay: the rewrite
// segment has a higher sequence than everything it replaces, and old
// segments are removed only after the rewrite is complete and synced.
func (s *FileStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("snapstore: store is closed")
	}
	return s.compactLocked()
}

// compactLocked is Compact's rewrite; s.mu is held and the store is open.
func (s *FileStore) compactLocked() error {
	old := make([]uint64, 0, len(s.segments))
	for seq := range s.segments {
		old = append(old, seq)
	}
	sort.Slice(old, func(i, j int) bool { return old[i] < old[j] })

	// Seal the current active; the rewrite target is the next sequence.
	if s.active != nil {
		if s.opts.Fsync {
			_ = s.active.Sync()
		}
		_ = s.active.Close()
		s.active = nil
	}
	outSeq := s.activeSeq + 1
	out, err := s.fs.OpenFile(filepath.Join(s.dir, segName(outSeq)), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return s.compactAbort(outSeq, fmt.Errorf("snapstore: compact: open %s: %w", segName(outSeq), err))
	}
	ids := make([]string, 0, len(s.blobs))
	for id := range s.blobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var outSize int64
	for _, id := range ids {
		rec := appendRecord(nil, opPut, id, s.blobs[id])
		n, werr := out.Write(rec)
		outSize += int64(n)
		if werr == nil && n < len(rec) {
			werr = fmt.Errorf("short write")
		}
		if werr != nil {
			_ = out.Close()
			return s.compactAbort(outSeq, fmt.Errorf("snapstore: compact: rewrite %s: %w", segName(outSeq), werr))
		}
	}
	// The rewrite must be durable before history is destroyed.
	if err := out.Sync(); err != nil {
		_ = out.Close()
		return s.compactAbort(outSeq, fmt.Errorf("snapstore: compact: sync: %w", err))
	}
	_ = out.Close()

	// Fresh active segment after the rewrite; appends never extend a
	// compacted segment, which keeps "later wins" trivially true.
	nextSeq := outSeq + 1
	f, err := s.fs.OpenFile(filepath.Join(s.dir, segName(nextSeq)), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("snapstore: compact: open new active: %w", err)
	}
	for _, seq := range old {
		_ = s.fs.Remove(filepath.Join(s.dir, segName(seq)))
	}
	s.segments = map[uint64]int64{outSeq: outSize, nextSeq: 0}
	s.totalBytes = outSize
	s.activeSeq, s.active, s.activeSize = nextSeq, f, 0
	return nil
}

// compactAbort cleans up a failed rewrite and restores an appendable
// active segment so the store stays usable after a compaction error.
func (s *FileStore) compactAbort(outSeq uint64, err error) error {
	_ = s.fs.Remove(filepath.Join(s.dir, segName(outSeq)))
	if rerr := s.rotateLocked(); rerr != nil {
		return fmt.Errorf("%w (and could not reopen an active segment: %v)", err, rerr)
	}
	return err
}

// Close seals the active segment.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.active != nil {
		if s.opts.Fsync {
			_ = s.active.Sync()
		}
		err := s.active.Close()
		s.active = nil
		return err
	}
	return nil
}

// MemStore is the trivial in-memory SessionStore, with process-lifetime
// durability only; tests use it as the reference implementation. hboedge
// never uses it: without -store-dir it leaves sessiond's Config.Store nil.
type MemStore struct {
	mu    sync.Mutex
	blobs map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{blobs: make(map[string][]byte)}
}

func (m *MemStore) Put(id string, blob []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.blobs[id] = append([]byte(nil), blob...)
	return nil
}

func (m *MemStore) Get(id string) ([]byte, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	blob, ok := m.blobs[id]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), blob...), true, nil
}

func (m *MemStore) Delete(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.blobs, id)
	return nil
}

func (m *MemStore) IDs() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]string, 0, len(m.blobs))
	for id := range m.blobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

func (m *MemStore) SizeBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for id, blob := range m.blobs {
		n += recordSize(id, blob)
	}
	return n
}

func (m *MemStore) Close() error { return nil }
