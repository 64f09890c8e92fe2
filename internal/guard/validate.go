// Semantic validators for inbound protocol messages. Each check returns a
// typed *Violation (nil when the message is acceptable) that the peer
// layer reports back to the Guard and folds into its abort error chain.
// The validators are pure functions of (message, local clock) under the
// package's fixed bounds, so they never perturb state: a rejected message
// aborts the contact under the §III-D rule — nothing journaled, nothing
// applied.
package guard

import (
	"math"

	"photodtn/internal/model"
	"photodtn/internal/wire"
)

// finite reports whether v is a usable real number.
func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// CheckHello validates the remote's identity claims after the version
// handshake. PROPHET delivery predictabilities live in [0,1]; the learned
// contact rate λ is a non-negative finite rate; the remote clock must sit
// within the skew allowance of ours (a far-future clock would poison the
// session time both sides derive metadata ages from — the monotone-age
// guard); and a non-command-center peer may not advertise more storage
// than MaxPeerCapacity, which would otherwise vacuum the joint
// reallocation's best photos onto the liar.
func CheckHello(h wire.Hello, now float64) *Violation {
	if !finite(h.DeliveryProb) || h.DeliveryProb < 0 || h.DeliveryProb > 1 {
		return violationf(ReasonBadProphet, "delivery predictability %v outside [0,1]", h.DeliveryProb)
	}
	if !finite(h.Lambda) || h.Lambda < 0 {
		return violationf(ReasonBadProphet, "contact rate λ=%v", h.Lambda)
	}
	if !finite(h.Time) || math.Abs(h.Time-now) > MaxClockSkew {
		return violationf(ReasonBadTimestamp, "remote clock %v vs local %v exceeds skew %v",
			h.Time, now, MaxClockSkew)
	}
	if h.Capacity < 0 {
		return violationf(ReasonOversized, "negative capacity %d", h.Capacity)
	}
	if !h.Node.IsCommandCenter() && h.Capacity > MaxPeerCapacity {
		return violationf(ReasonOversized, "claimed capacity %d exceeds cap %d", h.Capacity, MaxPeerCapacity)
	}
	return nil
}

// CheckPhoto validates one photo's metadata tuple: the model's own
// physical-meaning checks (positive range, FOV in (0,2π], positive size)
// plus finite coordinates, finite capture time and orientation, and the
// declared file size against MaxPhotoBytes.
func CheckPhoto(p model.Photo) *Violation {
	if err := p.Validate(); err != nil {
		return violationf(ReasonBadGeometry, "%v: %v", p.ID, err)
	}
	if !finite(p.Location.X) || !finite(p.Location.Y) ||
		!finite(p.Orientation) || !finite(p.TakenAt) {
		return violationf(ReasonBadGeometry, "%v: non-finite coordinates", p.ID)
	}
	if p.Size > MaxPhotoBytes {
		return violationf(ReasonOversized, "%v declares %d bytes, cap %d", p.ID, p.Size, MaxPhotoBytes)
	}
	return nil
}

// CheckMetadata validates a metadata message against the session clock.
// Entry timestamps may sit anywhere in the past (stale entries merely
// decay toward useless under §III-B) but not beyond the skew allowance in
// the future — a far-future snapshot would shadow every honest update from
// that node until its fake time passes. Duplicate origins within one
// message are a replay; entry and per-entry photo counts are bounded so a
// single frame cannot balloon the cache.
func CheckMetadata(md wire.Metadata, session float64) *Violation {
	if len(md.Entries) > MaxMetaEntries {
		return violationf(ReasonOversized, "%d metadata entries, cap %d", len(md.Entries), MaxMetaEntries)
	}
	seen := make(map[model.NodeID]bool, len(md.Entries))
	for _, e := range md.Entries {
		if seen[e.Node] {
			return violationf(ReasonReplay, "duplicate metadata entry for %v", e.Node)
		}
		seen[e.Node] = true
		if !finite(e.P) || e.P < 0 || e.P > 1 {
			return violationf(ReasonBadProphet, "entry %v predictability %v outside [0,1]", e.Node, e.P)
		}
		if !finite(e.Lambda) || e.Lambda < 0 {
			return violationf(ReasonBadProphet, "entry %v rate λ=%v", e.Node, e.Lambda)
		}
		if !finite(e.Timestamp) || e.Timestamp > session+MaxClockSkew {
			return violationf(ReasonBadTimestamp, "entry %v stamped %v, session %v",
				e.Node, e.Timestamp, session)
		}
		if len(e.Photos) > MaxPhotosPerEntry {
			return violationf(ReasonOversized, "entry %v lists %d photos, cap %d",
				e.Node, len(e.Photos), MaxPhotosPerEntry)
		}
		for _, p := range e.Photos {
			if v := CheckPhoto(p); v != nil {
				return v
			}
		}
	}
	return nil
}

// CheckMetaSummary validates a metadata summary against the session clock,
// under the bounds CheckMetadata applies to the entries it stands for: at
// most MaxMetaEntries pairs, each node at most once (the wire decoder
// already enforces ascending order, so a repeat is a replayed pair), finite
// stamps no further in the future than the skew allowance, and at most
// MaxPhotosPerEntry delivered IDs, the cap on the command-center entry they
// describe (the decoder already rejects a repeated ID). A summary only
// decides what the remote is sent, so a lie within these bounds costs the
// liar its own updates and nothing else.
func CheckMetaSummary(s wire.MetaSummary, session float64) *Violation {
	if len(s.Entries) > MaxMetaEntries {
		return violationf(ReasonOversized, "%d summary entries, cap %d", len(s.Entries), MaxMetaEntries)
	}
	if len(s.Delivered) > MaxPhotosPerEntry {
		return violationf(ReasonOversized, "summary lists %d delivered photos, cap %d", len(s.Delivered), MaxPhotosPerEntry)
	}
	for i, e := range s.Entries {
		if i > 0 && e.Node <= s.Entries[i-1].Node {
			return violationf(ReasonReplay, "summary lists %v after %v", e.Node, s.Entries[i-1].Node)
		}
		if !finite(e.Timestamp) || e.Timestamp > session+MaxClockSkew {
			return violationf(ReasonBadTimestamp, "summary stamps %v at %v, session %v",
				e.Node, e.Timestamp, session)
		}
	}
	return nil
}

// CheckChunk validates one inbound chunk against the session's negotiated
// transfer parameters and the pinned want-set: a chunk must carry a photo
// this node asked for, so an empty or nil want-set admits no chunk at all.
// The wire decoder already enforced canonical geometry; here we pin the
// chunk size to the negotiated one (an honest sender always slices at the
// session's size) and the declared total to the photo-size cap.
func CheckChunk(ch wire.Chunk, want map[model.PhotoID]bool, chunkSize int) *Violation {
	if v := CheckPhoto(ch.Photo); v != nil {
		return v
	}
	if !want[ch.Photo.ID] {
		return violationf(ReasonBadTransfer, "chunk for unrequested %v", ch.Photo.ID)
	}
	if chunkSize > 0 && ch.ChunkSize != uint32(chunkSize) {
		return violationf(ReasonBadTransfer, "chunk size %d, negotiated %d", ch.ChunkSize, chunkSize)
	}
	if ch.Total > uint64(MaxPhotoBytes) {
		return violationf(ReasonOversized, "chunk claims %d payload bytes, cap %d", ch.Total, MaxPhotoBytes)
	}
	return nil
}

// CheckResumeOffer validates a resume offer against the request that
// preceded it: every entry must name a photo the remote actually asked
// for, at most once, with a total under the photo-size cap.
func CheckResumeOffer(o wire.ResumeOffer, requested map[model.PhotoID]bool) *Violation {
	seen := make(map[model.PhotoID]bool, len(o.Entries))
	for _, e := range o.Entries {
		if seen[e.ID] {
			return violationf(ReasonBadTransfer, "duplicate resume entry for %v", e.ID)
		}
		seen[e.ID] = true
		if requested != nil && !requested[e.ID] {
			return violationf(ReasonBadTransfer, "resume entry for unrequested %v", e.ID)
		}
		if e.Total > uint64(MaxPhotoBytes) {
			return violationf(ReasonOversized, "resume entry %v claims %d bytes, cap %d",
				e.ID, e.Total, MaxPhotoBytes)
		}
	}
	return nil
}

// CheckChunkAck validates one chunk ack against the pinned plan of
// in-flight chunks: an ack must match a chunk actually sent and not yet
// acknowledged. outstanding maps (photo, index) to the number of unacked
// sends (always 0 or 1 with an honest sender); the caller decrements on
// acceptance.
func CheckChunkAck(a wire.ChunkAck, outstanding map[ChunkKey]int) *Violation {
	if outstanding[ChunkKey{ID: a.ID, Index: a.Index}] <= 0 {
		return violationf(ReasonBadTransfer, "ack for unsent chunk %v[%d]", a.ID, a.Index)
	}
	return nil
}

// ChunkKey identifies one chunk of one photo for plan pinning.
type ChunkKey struct {
	ID    model.PhotoID
	Index uint32
}
