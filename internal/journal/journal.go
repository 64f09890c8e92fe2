// Package journal provides the durable-state primitives the live peer
// builds on: a CRC-32C-framed write-ahead log that tolerates torn writes,
// and atomic snapshot files (write-temp + fsync + rename). Together they
// let a process recover the exact state it last committed after a crash —
// the survivable local state the paper's disaster setting presumes (a
// rescuer's phone that reboots must not forget which photos it holds or
// which deliveries the command center already acknowledged).
//
// A log record is framed like a wire-protocol message (package wire):
//
//	[4-byte LE payload length][1-byte record type][8-byte LE sequence]
//	[payload][4-byte LE CRC-32C of type + sequence + payload]
//
// Appends are O_APPEND + fsync, so a record is durable once Append
// returns. AppendBatch writes several records with one write and one
// fsync: the bytes on disk are the same as a run of Appends, only the
// barrier is shared. A crash mid-append leaves a torn tail; Open scans the
// log, keeps the longest prefix of CRC-valid records with increasing
// sequence numbers, and truncates the rest — a half-written record can
// never be half-applied, and a torn batch recovers as a prefix of its
// records.
//
// A snapshot compacts the log: Checkpoint atomically replaces the snapshot
// file (temp + fsync + rename) carrying the sequence number it covers,
// then resets the log. If the process dies between the rename and the
// reset, recovery skips the log records the snapshot already covers (their
// sequence numbers are not greater than the snapshot's), so every crash
// window is safe.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// File names inside a journal directory.
const (
	walName      = "wal.log"
	snapName     = "snapshot.bin"
	snapTempName = "snapshot.bin.tmp"
)

// Journal errors.
var (
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("journal: closed")
	// ErrCorruptSnapshot reports a snapshot that fails its checksum. A
	// snapshot is written atomically, so this indicates real on-disk
	// corruption (not a crash) and recovery refuses to guess.
	ErrCorruptSnapshot = errors.New("journal: corrupt snapshot")
	// ErrPayloadTooBig reports a record payload over MaxPayload.
	ErrPayloadTooBig = errors.New("journal: payload exceeds MaxPayload")
	// ErrConcurrentUse reports two overlapping Append/Checkpoint calls. The
	// journal is a single-writer log by contract — the peer commits every
	// contact under its own lock — so an overlap is a serialisation bug in
	// the caller, caught here before it can interleave two records' bytes.
	ErrConcurrentUse = errors.New("journal: concurrent use of single-writer log")
)

// MaxPayload bounds a record payload; larger appends are rejected and a
// larger declared length during recovery marks the tail torn.
const MaxPayload = 64 << 20

// recHeader is [len u32][type u8][seq u64]; recTrailer is the CRC-32C.
const (
	recHeaderSize  = 4 + 1 + 8
	recTrailerSize = 4
)

// crcTable is the Castagnoli polynomial, matching the wire protocol's
// frame checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record is one recovered log entry.
type Record struct {
	// Type is the caller's record discriminator.
	Type byte
	// Seq is the record's sequence number (monotonic across the journal's
	// whole life, including snapshots).
	Seq uint64
	// Payload is the record body.
	Payload []byte
}

// Options tunes Open.
type Options struct {
	// FS is the filesystem to operate on; nil means the real one.
	FS FS
}

// Stats describes what recovery found.
type Stats struct {
	// Recovered reports whether Open found existing state (a snapshot or
	// at least one log record).
	Recovered bool
	// SnapshotSeq is the sequence number the loaded snapshot covers (0 =
	// no snapshot).
	SnapshotSeq uint64
	// Records is the number of CRC-valid records to replay (after the
	// snapshot's coverage).
	Records int
	// StaleRecords is the number of valid records skipped because the
	// snapshot already covered them (crash between snapshot rename and
	// log reset).
	StaleRecords int
	// TruncatedBytes is the size of the torn/corrupt tail cut from the
	// log.
	TruncatedBytes int64
}

// Journal is an open journal directory: the latest snapshot (if any), the
// records appended since, and an append handle. It is not safe for
// concurrent use; the peer serialises access under its own lock.
type Journal struct {
	dir     string
	fs      FS
	file    File
	nextSeq uint64
	snap    []byte
	records []Record
	stats   Stats
	closed  bool
	// writing guards the single-writer contract: it is raised for the
	// duration of every Append/Checkpoint and trips ErrConcurrentUse when a
	// second writer overlaps (see ErrConcurrentUse).
	writing atomic.Bool
}

// enterWrite claims the single-writer slot; the caller must release it.
func (j *Journal) enterWrite() error {
	if !j.writing.CompareAndSwap(false, true) {
		return ErrConcurrentUse
	}
	return nil
}

// Open opens (creating if needed) the journal in dir, recovering any
// existing state: the snapshot is loaded, the log scanned, and a torn or
// corrupt tail truncated to the last CRC-valid record.
func Open(dir string, opts *Options) (*Journal, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.FS == nil {
		o.FS = OSFS{}
	}
	j := &Journal{dir: dir, fs: o.FS, nextSeq: 1}
	if err := j.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: create dir: %w", err)
	}
	// A leftover temp file is a snapshot that never committed; drop it.
	if _, err := j.fs.Stat(j.path(snapTempName)); err == nil {
		if err := j.fs.Remove(j.path(snapTempName)); err != nil {
			return nil, fmt.Errorf("journal: drop stale snapshot temp: %w", err)
		}
	}
	if err := j.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := j.scanLog(); err != nil {
		return nil, err
	}
	file, err := j.fs.OpenFile(j.path(walName), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open log: %w", err)
	}
	j.file = file
	j.stats.Recovered = j.stats.SnapshotSeq > 0 || len(j.records) > 0 || j.stats.StaleRecords > 0
	return j, nil
}

func (j *Journal) path(name string) string { return filepath.Join(j.dir, name) }

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Stats returns what recovery found when the journal was opened.
func (j *Journal) Stats() Stats { return j.stats }

// Snapshot returns the recovered snapshot payload (nil if none was on
// disk). The caller must not mutate it.
func (j *Journal) Snapshot() []byte { return j.snap }

// Records returns the recovered records to replay on top of the snapshot,
// in append order. The caller must not mutate them.
func (j *Journal) Records() []Record { return j.records }

// Seq returns the sequence number of the last durable record or snapshot
// (0 for a fresh journal).
func (j *Journal) Seq() uint64 { return j.nextSeq - 1 }

// Append frames and appends one record, fsyncing before returning: when
// Append returns nil the record is durable and will be replayed by the
// next Open.
func (j *Journal) Append(typ byte, payload []byte) error {
	return j.AppendBatch(Entry{Type: typ, Payload: payload})
}

// framePool recycles the buffers appends frame their records into, across
// every journal of the process: a buffer is written out before its append
// returns. Buffers over maxPooledFrames are left to the collector.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledFrames = 1 << 20

// Entry is one record handed to AppendBatch.
type Entry struct {
	// Type is the caller's record discriminator.
	Type byte
	// Payload is the record body.
	Payload []byte
}

// AppendBatch appends several records with one write and one fsync. Each
// entry is framed exactly as Append frames it, with consecutive sequence
// numbers, so the log holds the same bytes a run of single Appends would
// write. When AppendBatch returns nil every entry is durable. A crash
// mid-batch leaves a torn tail that Open cuts at a record boundary, so
// recovery keeps a prefix of the batch's records in order. An entry over
// MaxPayload rejects the whole batch before anything is written; an empty
// batch writes and syncs nothing.
func (j *Journal) AppendBatch(entries ...Entry) error {
	if err := j.enterWrite(); err != nil {
		return err
	}
	defer j.writing.Store(false)
	if j.closed {
		return ErrClosed
	}
	if len(entries) == 0 {
		return nil
	}
	size := 0
	for _, e := range entries {
		if len(e.Payload) > MaxPayload {
			return fmt.Errorf("%w: %d bytes", ErrPayloadTooBig, len(e.Payload))
		}
		size += recHeaderSize + len(e.Payload) + recTrailerSize
	}
	bp := framePool.Get().(*[]byte)
	defer framePool.Put(bp)
	frames := (*bp)[:0]
	if cap(frames) < size {
		frames = make([]byte, 0, size)
		if size <= maxPooledFrames {
			*bp = frames
		}
	}
	seq := j.nextSeq
	for _, e := range entries {
		at := len(frames)
		frames = binary.LittleEndian.AppendUint32(frames, uint32(len(e.Payload)))
		frames = append(frames, e.Type)
		frames = binary.LittleEndian.AppendUint64(frames, seq)
		frames = append(frames, e.Payload...)
		frames = binary.LittleEndian.AppendUint32(frames, crc32.Checksum(frames[at+4:], crcTable))
		seq++
	}
	if _, err := j.file.Write(frames); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := j.file.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	j.nextSeq = seq
	return nil
}

// Checkpoint atomically replaces the snapshot with state and resets the
// log. The snapshot covers every record appended so far; after a
// checkpoint, recovery loads the snapshot and replays only records
// appended afterwards. Every crash window is safe: before the rename the
// old snapshot + full log recover; after the rename but before the log
// reset, recovery skips the covered records by sequence number.
func (j *Journal) Checkpoint(state []byte) error {
	if err := j.enterWrite(); err != nil {
		return err
	}
	defer j.writing.Store(false)
	if j.closed {
		return ErrClosed
	}
	if err := writeSnapshotFile(j.fs, j.path(snapTempName), j.Seq(), state); err != nil {
		return err
	}
	if err := j.fs.Rename(j.path(snapTempName), j.path(snapName)); err != nil {
		return fmt.Errorf("journal: commit snapshot: %w", err)
	}
	// The snapshot is durable and authoritative; reset the log.
	if err := j.file.Close(); err != nil {
		return fmt.Errorf("journal: close log: %w", err)
	}
	file, err := j.fs.OpenFile(j.path(walName), os.O_WRONLY|os.O_TRUNC|os.O_CREATE, 0o644)
	if err != nil {
		j.closed = true // no append handle; refuse further writes
		return fmt.Errorf("journal: reset log: %w", err)
	}
	j.file = file
	return nil
}

// Close closes the append handle. The journal stays replayable on disk.
func (j *Journal) Close() error {
	if j.closed {
		return nil
	}
	j.closed = true
	return j.file.Close()
}

// loadSnapshot reads and validates the snapshot file, if present.
func (j *Journal) loadSnapshot() error {
	buf, err := j.fs.ReadFile(j.path(snapName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("journal: read snapshot: %w", err)
	}
	seq, payload, err := decodeSnapshot(buf)
	if err != nil {
		return err
	}
	j.snap = payload
	j.stats.SnapshotSeq = seq
	j.nextSeq = seq + 1
	return nil
}

// scanLog walks the log, collecting CRC-valid records newer than the
// snapshot and truncating the first torn or corrupt frame (and everything
// after it). Sequence numbers only grow, so a valid frame whose sequence
// does not exceed its predecessor's is not one this journal wrote and
// counts as corrupt.
func (j *Journal) scanLog() error {
	buf, err := j.fs.ReadFile(j.path(walName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("journal: read log: %w", err)
	}
	valid := 0
	var prevSeq uint64
	for off := 0; off < len(buf); {
		rest := buf[off:]
		if len(rest) < recHeaderSize+recTrailerSize {
			break // torn header
		}
		n := binary.LittleEndian.Uint32(rest)
		if n > MaxPayload {
			break // corrupt length field
		}
		total := recHeaderSize + int(n) + recTrailerSize
		if len(rest) < total {
			break // torn payload or trailer
		}
		sum := crc32.Checksum(rest[4:recHeaderSize+int(n)], crcTable)
		if binary.LittleEndian.Uint32(rest[recHeaderSize+int(n):]) != sum {
			break // corrupt record
		}
		rec := Record{
			Type:    rest[4],
			Seq:     binary.LittleEndian.Uint64(rest[5:]),
			Payload: append([]byte(nil), rest[recHeaderSize:recHeaderSize+int(n)]...),
		}
		if rec.Seq <= prevSeq || rec.Seq == math.MaxUint64 {
			break // sequence regression, or no successor to append after
		}
		prevSeq = rec.Seq
		if rec.Seq > j.stats.SnapshotSeq {
			j.records = append(j.records, rec)
			if rec.Seq >= j.nextSeq {
				j.nextSeq = rec.Seq + 1
			}
		} else {
			// Already covered by the snapshot: a crash hit the window
			// between snapshot commit and log reset.
			j.stats.StaleRecords++
		}
		off += total
		valid = off
	}
	if valid < len(buf) {
		j.stats.TruncatedBytes = int64(len(buf) - valid)
		if err := j.fs.Truncate(j.path(walName), int64(valid)); err != nil {
			return fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}
	j.stats.Records = len(j.records)
	return nil
}
