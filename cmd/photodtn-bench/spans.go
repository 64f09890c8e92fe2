package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// layer names a span: one boundary the benchmark owns around a call into
// one of the program's layers.
type layer uint8

const (
	lSimRun           layer = iota // one sim.Run
	lOnPhoto                       // core.Scheme.OnPhoto, through the wrapping sim.Scheme
	lOnContactPeer                 // core.Scheme.OnContact between two participants
	lOnContactGateway              // core.Scheme.OnContact with the command center
	lLiveUnit                      // one live replay or one ingest batch
	lLiveContact                   // dial start to both sides done
	lPeerDial                      // the initiator's Peer.DialContext
	lPeerServe                     // the responder's accepted conn, accept to Close
	lReadWait                      // one Read on a wrapped net.Conn
	lJournalWrite                  // one Write on a journal file
	lJournalFsync                  // one Sync on a journal file
	lAddPhoto                      // one Peer.AddPhoto
	numLayers
)

var layerNames = [numLayers]string{
	"sim.run", "core.on_photo", "core.on_contact_peer", "core.on_contact_gateway",
	"live.unit", "live.contact", "peer.dial", "peer.serve",
	"wire.read_wait", "journal.write", "journal.fsync", "peer.add_photo",
}

func (l layer) String() string { return layerNames[l] }

// span is one timed call. Times are nanoseconds since the tracer's origin
// on the monotonic clock.
type span struct {
	Layer   layer
	Parent  int32 // index of the span that caused this one; -1 for a unit root
	Unit    int32 // unit (run, replay, batch) the span belongs to
	Contact int32 // contact index within the unit; -1 outside contacts
	Start   int64
	End     int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced state: begin returns -1 and every other method does nothing.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span now and returns its index.
func (t *tracer) begin(l layer, parent, unit, contact int32) int32 {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Layer: l, Parent: parent, Unit: unit, Contact: contact, Start: start})
	return int32(len(t.spans) - 1)
}

// end closes span id now.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// adopt attaches span id to its cause once that is known: a responder's
// span is opened at accept, before the benchmark knows which contact the
// connection belongs to.
func (t *tracer) adopt(id, parent, contact int32) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Parent = parent
	t.spans[id].Contact = contact
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its child spans cover. Overlapping children (the two sides
// of a contact run at once) are counted once, and a child is clipped to
// its parent's interval.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && int(s.Parent) < len(spans) {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		self[i] = s.End - s.Start
		if len(children[i]) == 0 {
			continue
		}
		iv = iv[:0]
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		open := false
		for _, x := range iv {
			switch {
			case !open:
				curLo, curHi, open = x[0], x[1], true
			case x[0] <= curHi:
				curHi = max(curHi, x[1])
			default:
				covered += curHi - curLo
				curLo, curHi = x[0], x[1]
			}
		}
		if open {
			covered += curHi - curLo
		}
		self[i] -= covered
	}
	return self
}

// layerTotals sums span count, busy time and self time per layer.
type layerTotals struct {
	calls [numLayers]int64
	busy  [numLayers]time.Duration
	self  [numLayers]time.Duration
}

func aggregate(spans []span) layerTotals {
	var t layerTotals
	self := selfTimes(spans)
	for i, s := range spans {
		t.calls[s.Layer]++
		t.busy[s.Layer] += time.Duration(s.End - s.Start)
		t.self[s.Layer] += time.Duration(self[i])
	}
	return t
}

// writeSpans writes the spans as JSON, one object per span.
func writeSpans(path string, spans []span) error {
	type out struct {
		Name    string `json:"name"`
		Start   int64  `json:"start_ns"`
		End     int64  `json:"end_ns"`
		Parent  int32  `json:"parent"`
		Unit    int32  `json:"unit"`
		Contact int32  `json:"contact"`
	}
	rows := make([]out, len(spans))
	for i, s := range spans {
		rows[i] = out{s.Layer.String(), s.Start, s.End, s.Parent, s.Unit, s.Contact}
	}
	buf, err := json.Marshal(rows)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
