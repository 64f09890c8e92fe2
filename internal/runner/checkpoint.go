package runner

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// cellRecord is one completed cell as persisted in the checkpoint file:
// which job, which run, under what seed, and the run's summary. One JSON
// object per line (JSONL), append-only.
type cellRecord struct {
	Job     string   `json:"job"`
	Run     int      `json:"run"`
	Seed    int64    `json:"seed"`
	Summary *Summary `json:"summary"`
}

// Checkpoint records completed cells as JSONL so an interrupted sweep
// resumes from where it stopped instead of recomputing finished work. A
// record is matched on (job key, run index, seed): a checkpoint written
// under a different base seed simply misses and the cell reruns — stale
// files degrade to extra work, never to wrong results.
//
// Loading tolerates a truncated final line (the signature of a kill mid
// write); any unparsable line is skipped. A nil *Checkpoint is the disabled
// state: lookups miss and records are dropped.
type Checkpoint struct {
	mu   sync.Mutex
	w    io.Writer
	c    io.Closer
	done map[string]map[int]cellRecord
}

// OpenCheckpoint loads the checkpoint at path (creating it when absent) and
// opens it for appending. Close it when the sweep is done.
func OpenCheckpoint(path string) (*Checkpoint, error) {
	cp := &Checkpoint{done: make(map[string]map[int]cellRecord)}
	if f, err := os.Open(path); err == nil {
		cp.load(f)
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("runner: checkpoint %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("runner: checkpoint %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runner: checkpoint %s: %w", path, err)
	}
	cp.w, cp.c = f, f
	return cp, nil
}

// load parses existing records, skipping unparsable lines.
func (cp *Checkpoint) load(r io.Reader) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		var rec cellRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.Summary == nil {
			continue
		}
		cp.put(rec)
	}
}

func (cp *Checkpoint) put(rec cellRecord) {
	runs := cp.done[rec.Job]
	if runs == nil {
		runs = make(map[int]cellRecord)
		cp.done[rec.Job] = runs
	}
	runs[rec.Run] = rec
}

// Lookup returns the recorded summary of a cell, if its seed matches.
func (cp *Checkpoint) Lookup(job string, run int, seed int64) (*Summary, bool) {
	if cp == nil {
		return nil, false
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	rec, ok := cp.done[job][run]
	if !ok || rec.Seed != seed {
		return nil, false
	}
	return rec.Summary, true
}

// Record persists one completed cell (one fsync-free JSONL append; the
// tolerant loader absorbs a torn final line on crash).
func (cp *Checkpoint) Record(job string, run int, seed int64, s *Summary) error {
	if cp == nil {
		return nil
	}
	rec := cellRecord{Job: job, Run: run, Seed: seed, Summary: s}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("runner: checkpoint: %w", err)
	}
	line = append(line, '\n')
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.w != nil {
		if _, err := cp.w.Write(line); err != nil {
			return fmt.Errorf("runner: checkpoint: %w", err)
		}
	}
	cp.put(rec)
	return nil
}

// Len returns the number of recorded cells.
func (cp *Checkpoint) Len() int {
	if cp == nil {
		return 0
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	n := 0
	for _, runs := range cp.done {
		n += len(runs)
	}
	return n
}

// Close closes the underlying file. Nil-safe.
func (cp *Checkpoint) Close() error {
	if cp == nil {
		return nil
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.c == nil {
		return nil
	}
	err := cp.c.Close()
	cp.c, cp.w = nil, nil
	if err != nil {
		return fmt.Errorf("runner: checkpoint: %w", err)
	}
	return nil
}
