package guard

import (
	"errors"
	"math"
	"testing"

	"photodtn/internal/geo"
	"photodtn/internal/metadata"
	"photodtn/internal/model"
	"photodtn/internal/wire"
)

func goodPhoto(owner model.NodeID, seq uint32) model.Photo {
	return model.Photo{
		ID:       model.MakePhotoID(owner, seq),
		Owner:    owner,
		Location: geo.Vec{X: 10, Y: 20},
		Range:    120,
		FOV:      geo.Radians(60),
		Size:     4 << 20,
	}
}

func TestWithDefaults(t *testing.T) {
	// Zero and negative settings both take the defaults: there is no "off".
	for _, c := range []Config{{}, {MaxContactRate: -1, QuarantineTTL: -1}} {
		got := c.withDefaults()
		if got.MaxContactRate != DefaultMaxContactRate || got.QuarantineTTL != DefaultQuarantineTTL {
			t.Fatalf("%+v resolved to %+v", c, got)
		}
	}
	set := Config{MaxContactRate: 2, QuarantineTTL: 60}
	if got := set.withDefaults(); got != set {
		t.Fatalf("%+v resolved to %+v", set, got)
	}
}

func TestNilGuardIsNoOp(t *testing.T) {
	var g *Guard
	if err := g.AdmitContact(1, 0); err != nil {
		t.Fatal(err)
	}
	if g.Report(1, ReasonPhase, 0) {
		t.Fatal("nil guard quarantined")
	}
	if g.Quarantined(1, 0) {
		t.Fatal("nil guard reports quarantine")
	}
	g.RestoreQuarantine(1, 100, 0)
	g.OnQuarantine(func(model.NodeID, float64, Reason) {})
	if q := g.ActiveQuarantines(0); q != nil {
		t.Fatalf("nil guard active quarantines = %v", q)
	}
	if s := g.Stats(0); s.Violations != 0 {
		t.Fatalf("nil guard stats = %+v", s)
	}
}

func TestContactBucketRefills(t *testing.T) {
	g := New(Config{MaxContactRate: 1}, nil)
	// The burst admits ContactBurst back-to-back contacts, then the bucket
	// is dry.
	for i := 0; i < ContactBurst; i++ {
		if err := g.AdmitContact(5, 100); err != nil {
			t.Fatalf("contact %d: %v", i, err)
		}
	}
	err := g.AdmitContact(5, 100)
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("dry bucket err = %v, want ErrRateLimited", err)
	}
	// One second refills one token, and only one.
	if err := g.AdmitContact(5, 101); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	if err := g.AdmitContact(5, 101); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("second contact after a one-token refill = %v, want ErrRateLimited", err)
	}
	// Buckets are per-peer: node 6 is untouched by node 5's spending.
	if err := g.AdmitContact(6, 100); err != nil {
		t.Fatalf("other peer: %v", err)
	}
	st := g.Stats(101)
	if st.ShedContacts != 2 || st.ByReason[ReasonFlood] != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReportEscalatesToQuarantine(t *testing.T) {
	var gotNode model.NodeID
	var gotUntil float64
	var gotReason Reason
	calls := 0
	g := New(Config{QuarantineTTL: 50}, nil)
	g.OnQuarantine(func(n model.NodeID, until float64, r Reason) {
		calls++
		gotNode, gotUntil, gotReason = n, until, r
	})

	// All three reports land at one instant, so no decay runs between them.
	if g.Report(7, ReasonBadProphet, 10) || g.Report(7, ReasonReplay, 10) {
		t.Fatal("quarantined below threshold")
	}
	if !g.Report(7, ReasonBadGeometry, 10) {
		t.Fatal("third violation (score 3) should quarantine")
	}
	if calls != 1 || gotNode != 7 || gotUntil != 60 || gotReason != ReasonBadGeometry {
		t.Fatalf("hook called %d times with (%v, %v, %v)", calls, gotNode, gotUntil, gotReason)
	}
	if !g.Quarantined(7, 10) || g.Quarantined(7, 60.5) {
		t.Fatal("quarantine window wrong")
	}
	// Admission during the ban is shed with the typed sentinel.
	if err := g.AdmitContact(7, 20); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("admit during ban = %v, want ErrQuarantined", err)
	}
	// After expiry the peer is admitted again (score was reset).
	if err := g.AdmitContact(7, 61); err != nil {
		t.Fatalf("admit after expiry: %v", err)
	}
	st := g.Stats(20)
	if st.QuarantineEvents != 1 || st.Quarantined != 1 || st.Violations != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestScoreHalfLifeDecays(t *testing.T) {
	g := New(Config{}, nil)
	// Two violations, then five half-lives of quiet: the residual score
	// (2/32) plus two fresh violations stays below the threshold.
	later := 5 * ScoreHalfLife
	g.Report(3, ReasonPhase, 0)
	g.Report(3, ReasonPhase, 0)
	if g.Report(3, ReasonPhase, later) {
		t.Fatal("decayed score should not quarantine on the third violation")
	}
	// Without decay, the third would have crossed the threshold; with it,
	// the score sits near 2 and the fifth violation tips it over.
	if g.Report(3, ReasonPhase, later) {
		t.Fatal("fourth violation should still be below threshold")
	}
	if !g.Report(3, ReasonPhase, later) {
		t.Fatal("fifth violation within the window should quarantine")
	}
}

func TestFloodEscalatesToQuarantine(t *testing.T) {
	// Flood violations weigh 0.25, so on a frozen clock the
	// QuarantineScore/0.25-th shed contact (not the first) quarantines —
	// honest burstiness is tolerated.
	g := New(Config{MaxContactRate: 0.001, QuarantineTTL: 100}, nil)
	for i := 0; i < ContactBurst; i++ {
		if err := g.AdmitContact(9, 0); err != nil {
			t.Fatalf("contact %d inside the burst: %v", i, err)
		}
	}
	sheds := int(QuarantineScore / ReasonFlood.weight())
	for i := 0; i < sheds; i++ {
		if g.Quarantined(9, 0) {
			t.Fatalf("quarantined after %d sheds, want %d", i, sheds)
		}
		if err := g.AdmitContact(9, 0); !errors.Is(err, ErrRateLimited) {
			t.Fatalf("shed %d: %v", i, err)
		}
	}
	if !g.Quarantined(9, 0) {
		t.Fatal("sustained flooding did not quarantine")
	}
	if err := g.AdmitContact(9, 0); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("contact after the quarantine = %v, want ErrQuarantined", err)
	}
}

func TestRestoreQuarantine(t *testing.T) {
	g := New(Config{}, nil)
	fired := 0
	g.OnQuarantine(func(model.NodeID, float64, Reason) { fired++ })

	g.RestoreQuarantine(4, 50, 100) // already expired: dropped
	if g.Quarantined(4, 100) {
		t.Fatal("expired restore took effect")
	}
	g.RestoreQuarantine(4, 200, 100)
	if !g.Quarantined(4, 150) || g.Quarantined(4, 250) {
		t.Fatal("restored quarantine window wrong")
	}
	g.RestoreQuarantine(4, 150, 100) // shorter than current: keep the longer ban
	if g.Quarantined(4, 250) || !g.Quarantined(4, 180) {
		t.Fatal("restore shortened an existing ban")
	}
	if fired != 0 {
		t.Fatalf("restore fired the hook %d times; the original imposition already journaled it", fired)
	}
	g.RestoreQuarantine(2, 300, 100)
	q := g.ActiveQuarantines(100)
	if len(q) != 2 || q[0].Node != 2 || q[0].Until != 300 || q[1].Node != 4 || q[1].Until != 200 {
		t.Fatalf("active quarantines = %+v", q)
	}
	// Restores are not quarantine *events*.
	if st := g.Stats(100); st.QuarantineEvents != 0 || st.Quarantined != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReasonStrings(t *testing.T) {
	want := map[Reason]string{
		ReasonPhase: "phase", ReasonReplay: "replay", ReasonBadProphet: "bad-prophet",
		ReasonBadTimestamp: "bad-timestamp", ReasonBadGeometry: "bad-geometry",
		ReasonOversized: "oversized", ReasonBadTransfer: "bad-transfer", ReasonFlood: "flood",
	}
	for r, s := range want {
		if r.String() != s {
			t.Fatalf("%d.String() = %q, want %q", r, r.String(), s)
		}
	}
	if Reason(99).String() != "unknown" {
		t.Fatalf("unknown reason = %q", Reason(99).String())
	}
	v := violationf(ReasonReplay, "dup %d", 5)
	if v.Error() != "guard: replay violation: dup 5" {
		t.Fatalf("violation error = %q", v.Error())
	}
}

func TestCheckHello(t *testing.T) {
	ok := wire.Hello{Node: 3, Lambda: 0.01, DeliveryProb: 0.5, Time: 1000, Capacity: 64 << 20}
	if v := CheckHello(ok, 1000); v != nil {
		t.Fatalf("honest hello rejected: %v", v)
	}
	cases := []struct {
		name   string
		mut    func(*wire.Hello)
		reason Reason
	}{
		{"prob above 1", func(h *wire.Hello) { h.DeliveryProb = 42 }, ReasonBadProphet},
		{"prob negative", func(h *wire.Hello) { h.DeliveryProb = -0.1 }, ReasonBadProphet},
		{"prob NaN", func(h *wire.Hello) { h.DeliveryProb = math.NaN() }, ReasonBadProphet},
		{"lambda negative", func(h *wire.Hello) { h.Lambda = -3 }, ReasonBadProphet},
		{"lambda inf", func(h *wire.Hello) { h.Lambda = math.Inf(1) }, ReasonBadProphet},
		{"clock far future", func(h *wire.Hello) { h.Time = 1000 + MaxClockSkew + 1 }, ReasonBadTimestamp},
		{"clock far past", func(h *wire.Hello) { h.Time = 1000 - MaxClockSkew - 1 }, ReasonBadTimestamp},
		{"clock NaN", func(h *wire.Hello) { h.Time = math.NaN() }, ReasonBadTimestamp},
		{"capacity negative", func(h *wire.Hello) { h.Capacity = -1 }, ReasonOversized},
		{"capacity absurd", func(h *wire.Hello) { h.Capacity = MaxPeerCapacity + 1 }, ReasonOversized},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := ok
			tc.mut(&h)
			v := CheckHello(h, 1000)
			if v == nil || v.Reason != tc.reason {
				t.Fatalf("violation = %v, want reason %v", v, tc.reason)
			}
		})
	}
	// The command center is exempt from the capacity cap (it archives
	// everything by design).
	cc := ok
	cc.Node = model.CommandCenter
	cc.Capacity = MaxPeerCapacity + 1
	if v := CheckHello(cc, 1000); v != nil {
		t.Fatalf("command-center capacity rejected: %v", v)
	}
}

func TestCheckMetadata(t *testing.T) {
	entry := func(n model.NodeID, ts float64) metadata.Entry {
		return metadata.Entry{Node: n, Lambda: 0.01, P: 0.5, Timestamp: ts,
			Photos: model.PhotoList{goodPhoto(n, 0)}}
	}
	// entries(n) is a message of n entries; photos(n) one entry of n
	// photos.
	entries := func(n int) wire.Metadata {
		md := wire.Metadata{Entries: make([]metadata.Entry, n)}
		for i := range md.Entries {
			md.Entries[i] = entry(model.NodeID(i+1), 1)
		}
		return md
	}
	photos := func(n int) wire.Metadata {
		e := entry(1, 1)
		e.Photos = make(model.PhotoList, n)
		for i := range e.Photos {
			e.Photos[i] = goodPhoto(1, uint32(i))
		}
		return wire.Metadata{Entries: []metadata.Entry{e}}
	}
	if v := CheckMetadata(wire.Metadata{Entries: []metadata.Entry{entry(1, 900), entry(2, 950)}}, 1000); v != nil {
		t.Fatalf("honest metadata rejected: %v", v)
	}
	if v := CheckMetadata(entries(MaxMetaEntries), 1000); v != nil {
		t.Fatalf("metadata at the entry cap rejected: %v", v)
	}
	if v := CheckMetadata(photos(MaxPhotosPerEntry), 1000); v != nil {
		t.Fatalf("entry at the photo cap rejected: %v", v)
	}
	// Far-past timestamps are fine — they merely decay to useless.
	if v := CheckMetadata(wire.Metadata{Entries: []metadata.Entry{entry(1, -1e9)}}, 1000); v != nil {
		t.Fatalf("ancient entry rejected: %v", v)
	}

	cases := []struct {
		name   string
		md     wire.Metadata
		reason Reason
	}{
		{"too many entries", entries(MaxMetaEntries + 1), ReasonOversized},
		{"duplicate origin",
			wire.Metadata{Entries: []metadata.Entry{entry(1, 1), entry(1, 2)}},
			ReasonReplay},
		{"bad predictability",
			wire.Metadata{Entries: []metadata.Entry{{Node: 1, P: 1.5, Timestamp: 1}}},
			ReasonBadProphet},
		{"negative lambda",
			wire.Metadata{Entries: []metadata.Entry{{Node: 1, Lambda: -1, P: 0.5, Timestamp: 1}}},
			ReasonBadProphet},
		{"far-future timestamp",
			wire.Metadata{Entries: []metadata.Entry{entry(1, 1000+MaxClockSkew+1)}},
			ReasonBadTimestamp},
		{"NaN timestamp",
			wire.Metadata{Entries: []metadata.Entry{entry(1, math.NaN())}},
			ReasonBadTimestamp},
		{"too many photos", photos(MaxPhotosPerEntry + 1), ReasonOversized},
		{"non-finite photo location", func() wire.Metadata {
			e := entry(1, 1)
			p := goodPhoto(1, 0)
			p.Location.X = math.NaN()
			e.Photos = model.PhotoList{p}
			return wire.Metadata{Entries: []metadata.Entry{e}}
		}(), ReasonBadGeometry},
		{"oversized photo", func() wire.Metadata {
			e := entry(1, 1)
			p := goodPhoto(1, 0)
			p.Size = 1 << 60
			e.Photos = model.PhotoList{p}
			return wire.Metadata{Entries: []metadata.Entry{e}}
		}(), ReasonOversized},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := CheckMetadata(tc.md, 1000)
			if v == nil || v.Reason != tc.reason {
				t.Fatalf("violation = %v, want reason %v", v, tc.reason)
			}
		})
	}
}

func TestCheckMetaSummary(t *testing.T) {
	sum := func(pairs ...metadata.Stamp) wire.MetaSummary { return wire.MetaSummary{Entries: pairs} }
	delivered := func(n int) wire.MetaSummary {
		s := wire.MetaSummary{Delivered: make([]model.PhotoID, n)}
		for i := range s.Delivered {
			s.Delivered[i] = model.MakePhotoID(2, uint32(i))
		}
		return s
	}
	pairs := func(n int) wire.MetaSummary {
		s := wire.MetaSummary{Entries: make([]metadata.Stamp, n)}
		for i := range s.Entries {
			s.Entries[i] = metadata.Stamp{Node: model.NodeID(i + 1)}
		}
		return s
	}
	if v := CheckMetaSummary(sum(metadata.Stamp{Node: 1, Timestamp: -1e9}, metadata.Stamp{Node: 5, Timestamp: 1000}), 1000); v != nil {
		t.Fatalf("honest summary rejected: %v", v)
	}
	if v := CheckMetaSummary(delivered(MaxPhotosPerEntry), 1000); v != nil {
		t.Fatalf("summary with a full ledger rejected: %v", v)
	}
	if v := CheckMetaSummary(pairs(MaxMetaEntries), 1000); v != nil {
		t.Fatalf("summary at the pair cap rejected: %v", v)
	}
	if v := CheckMetaSummary(sum(), 1000); v != nil {
		t.Fatalf("empty summary rejected: %v", v)
	}
	cases := []struct {
		name   string
		s      wire.MetaSummary
		reason Reason
	}{
		{"too many pairs", pairs(MaxMetaEntries + 1), ReasonOversized},
		{"duplicate node", sum(metadata.Stamp{Node: 4, Timestamp: 1}, metadata.Stamp{Node: 4, Timestamp: 2}), ReasonReplay},
		{"descending nodes", sum(metadata.Stamp{Node: 4}, metadata.Stamp{Node: 3}), ReasonReplay},
		{"far-future stamp", sum(metadata.Stamp{Node: 1, Timestamp: 1000 + MaxClockSkew + 1}), ReasonBadTimestamp},
		{"NaN stamp", sum(metadata.Stamp{Node: 1, Timestamp: math.NaN()}), ReasonBadTimestamp},
		{"infinite stamp", sum(metadata.Stamp{Node: 1, Timestamp: math.Inf(-1)}), ReasonBadTimestamp},
		{"too many delivered", delivered(MaxPhotosPerEntry + 1), ReasonOversized},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := CheckMetaSummary(tc.s, 1000)
			if v == nil || v.Reason != tc.reason {
				t.Fatalf("violation = %v, want reason %v", v, tc.reason)
			}
		})
	}
}

func TestCheckChunk(t *testing.T) {
	p := goodPhoto(2, 0)
	want := map[model.PhotoID]bool{p.ID: true}
	ch := wire.Chunk{Photo: p, Index: 0, Count: 1, ChunkSize: 1 << 16, Total: uint64(p.Size)}
	if v := CheckChunk(ch, want, 1<<16); v != nil {
		t.Fatalf("honest chunk rejected: %v", v)
	}
	if v := CheckChunk(ch, map[model.PhotoID]bool{999: true}, 1<<16); v == nil || v.Reason != ReasonBadTransfer {
		t.Fatalf("unrequested chunk = %v", v)
	}
	if v := CheckChunk(ch, want, 1<<15); v == nil || v.Reason != ReasonBadTransfer {
		t.Fatalf("wrong chunk size = %v", v)
	}
	big := ch
	big.Total = uint64(MaxPhotoBytes) + 1
	if v := CheckChunk(big, want, 1<<16); v == nil || v.Reason != ReasonOversized {
		t.Fatalf("oversized total = %v", v)
	}
	// An empty or nil want-set means the node asked for nothing: every
	// chunk is unrequested.
	for _, none := range []map[model.PhotoID]bool{nil, {}} {
		if v := CheckChunk(ch, none, 1<<16); v == nil || v.Reason != ReasonBadTransfer {
			t.Fatalf("chunk against want-set %v = %v, want a bad-transfer violation", none, v)
		}
	}
}

func TestCheckResumeOffer(t *testing.T) {
	req := map[model.PhotoID]bool{7: true, 8: true}
	offer := wire.ResumeOffer{Entries: []wire.ResumeEntry{{ID: 7, Total: 100}, {ID: 8, Total: 200}}}
	if v := CheckResumeOffer(offer, req); v != nil {
		t.Fatalf("honest offer rejected: %v", v)
	}
	dup := wire.ResumeOffer{Entries: []wire.ResumeEntry{{ID: 7}, {ID: 7}}}
	if v := CheckResumeOffer(dup, req); v == nil || v.Reason != ReasonBadTransfer {
		t.Fatalf("duplicate entry = %v", v)
	}
	alien := wire.ResumeOffer{Entries: []wire.ResumeEntry{{ID: 99}}}
	if v := CheckResumeOffer(alien, req); v == nil || v.Reason != ReasonBadTransfer {
		t.Fatalf("unrequested entry = %v", v)
	}
	big := wire.ResumeOffer{Entries: []wire.ResumeEntry{{ID: 7, Total: uint64(MaxPhotoBytes) + 1}}}
	if v := CheckResumeOffer(big, req); v == nil || v.Reason != ReasonOversized {
		t.Fatalf("oversized entry = %v", v)
	}
}

func TestCheckChunkAck(t *testing.T) {
	outstanding := map[ChunkKey]int{{ID: 5, Index: 2}: 1}
	if v := CheckChunkAck(wire.ChunkAck{ID: 5, Index: 2}, outstanding); v != nil {
		t.Fatalf("honest ack rejected: %v", v)
	}
	if v := CheckChunkAck(wire.ChunkAck{ID: 5, Index: 3}, outstanding); v == nil || v.Reason != ReasonBadTransfer {
		t.Fatalf("ack for unsent chunk = %v", v)
	}
	// The caller decrements on acceptance; a second identical ack is then
	// an over-ack.
	outstanding[ChunkKey{ID: 5, Index: 2}] = 0
	if v := CheckChunkAck(wire.ChunkAck{ID: 5, Index: 2}, outstanding); v == nil || v.Reason != ReasonBadTransfer {
		t.Fatalf("over-ack = %v", v)
	}
}
