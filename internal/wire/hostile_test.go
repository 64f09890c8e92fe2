package wire

import (
	"errors"
	"testing"
)

// TestDecodeHostileLengths drives every length-prefixed decoder with claims
// the body cannot satisfy, and the summary decoder with out-of-order lists
// and trailing bytes: each must fail with ErrBadMessage before doing any
// claim-proportional work or allocation. The alloc assertions pin the
// fast-fail property — a decoder that trusted the claimed count would
// allocate (or loop) on the order of the claim, not the body.
func TestDecodeHostileLengths(t *testing.T) {
	hugeChunk := samplePhoto(7, 0).AppendBinary(nil)
	hugeChunk = appendU32(hugeChunk, 0)          // index
	hugeChunk = appendU32(hugeChunk, 0xFFFFFFFF) // count far past MaxChunks
	hugeChunk = appendU32(hugeChunk, 1)          // chunk size
	hugeChunk = appendU64(hugeChunk, 1<<62)      // total
	hugeChunk = appendU32(hugeChunk, 0)          // crc

	hugePhotos := appendU32(nil, 1) // one metadata entry ...
	hugePhotos = appendU32(hugePhotos, 5)
	hugePhotos = appendF64(hugePhotos, 0.1)
	hugePhotos = appendF64(hugePhotos, 0.2)
	hugePhotos = appendF64(hugePhotos, 3)
	hugePhotos = appendU32(hugePhotos, 0x80000000) // ... claiming 2^31 photos

	hugeResume := appendU64(nil, 9) // one resume entry ...
	hugeResume = appendU32(hugeResume, 1)
	hugeResume = appendU32(hugeResume, MaxChunks) // ... whose bitmap would be 2 MiB
	hugeResume = appendU64(hugeResume, MaxChunks)
	hugeResume = appendU32(hugeResume, 0)

	unsorted := appendU32(nil, 2) // two summary pairs, node 9 before node 3
	unsorted = appendU32(unsorted, 9)
	unsorted = appendF64(unsorted, 1)
	unsorted = appendU32(unsorted, 3)
	unsorted = appendF64(unsorted, 1)
	unsorted = appendU32(unsorted, 0) // no delivered IDs

	// summaryWith is an empty-stamp summary whose delivered list is ids.
	summaryWith := func(ids ...uint64) []byte {
		b := appendU32(appendU32(nil, 0), uint32(len(ids)))
		for _, id := range ids {
			b = appendU64(b, id)
		}
		return b
	}

	cases := []struct {
		name string
		typ  MsgType
		body []byte
	}{
		{"metadata count", MsgMetadata, []byte{0xFF, 0xFF, 0xFF, 0xFF}},
		{"metadata photos", MsgMetadata, hugePhotos},
		{"request count", MsgPhotoRequest, []byte{0xFF, 0xFF, 0xFF, 0x7F}},
		{"ack count", MsgAck, []byte{0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3}},
		{"offer count empty", MsgResumeOffer, []byte{0xFF, 0xFF, 0xFF, 0xFF}},
		{"offer count short", MsgResumeOffer, append([]byte{0x10, 0, 0, 0}, make([]byte, 29)...)},
		{"offer bitmap", MsgResumeOffer, append(appendU32(nil, 1), hugeResume...)},
		{"chunk geometry", MsgChunk, hugeChunk},
		{"summary count", MsgMetaSummary, []byte{0xFF, 0xFF, 0xFF, 0xFF}},
		{"summary short body", MsgMetaSummary, append(appendU32(nil, 2), make([]byte, 23)...)},
		{"summary unsorted", MsgMetaSummary, unsorted},
		{"summary no delivered count", MsgMetaSummary, appendU32(nil, 0)},
		{"summary delivered count", MsgMetaSummary, append(appendU32(nil, 0), 0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3)},
		{"summary delivered short", MsgMetaSummary, summaryWith(1, 2)[:19]},
		{"summary delivered descending", MsgMetaSummary, summaryWith(1, 5, 3)},
		{"summary delivered repeat", MsgMetaSummary, summaryWith(1, 4, 4)},
		{"summary trailing byte", MsgMetaSummary, append(summaryWith(1, 2), 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			allocs := testing.AllocsPerRun(10, func() {
				_, err = DecodeBody(tc.typ, tc.body)
			})
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("err = %v, want ErrBadMessage", err)
			}
			// The error path formats a message (a handful of allocations);
			// anything claim-proportional would be thousands.
			if allocs > 32 {
				t.Fatalf("decode allocated %v times on a hostile claim", allocs)
			}
		})
	}
}
