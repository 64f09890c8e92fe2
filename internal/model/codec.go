package model

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// photoWireSize is the fixed encoded size of a Photo: 8 (id) + 4 (owner) +
// 8*6 (taken_at, x, y, range, fov, orientation) + 8 (size) + 8 (quality) +
// 8*8 (hist).
const photoWireSize = 8 + 4 + 6*8 + 8 + 8 + HistogramBins*8

// PhotoWireSize is the fixed encoded size of a Photo, exported for callers
// that budget memory in encoded-photo units (the metadata cache's byte cap).
const PhotoWireSize = photoWireSize

// ErrShortBuffer is returned when a decode input is truncated.
var ErrShortBuffer = errors.New("model: short buffer")

// AppendBinary appends the fixed-size binary encoding of p to dst and
// returns the extended slice. The encoding is little-endian and
// platform-independent.
func (p Photo) AppendBinary(dst []byte) []byte {
	var buf [photoWireSize]byte
	b := buf[:]
	binary.LittleEndian.PutUint64(b[0:], uint64(p.ID))
	binary.LittleEndian.PutUint32(b[8:], uint32(p.Owner))
	putF := func(off int, v float64) {
		binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
	}
	putF(12, p.TakenAt)
	putF(20, p.Location.X)
	putF(28, p.Location.Y)
	putF(36, p.Range)
	putF(44, p.FOV)
	putF(52, p.Orientation)
	binary.LittleEndian.PutUint64(b[60:], uint64(p.Size))
	putF(68, p.Quality)
	for i, h := range p.Hist {
		putF(76+8*i, h)
	}
	return append(dst, b...)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (p Photo) MarshalBinary() ([]byte, error) {
	return p.AppendBinary(nil), nil
}

// DecodePhoto decodes one photo from the front of b, returning the photo and
// the remaining bytes.
func DecodePhoto(b []byte) (Photo, []byte, error) {
	if len(b) < photoWireSize {
		return Photo{}, b, fmt.Errorf("%w: need %d bytes, have %d", ErrShortBuffer, photoWireSize, len(b))
	}
	getF := func(off int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
	}
	p := Photo{
		ID:          PhotoID(binary.LittleEndian.Uint64(b[0:])),
		Owner:       NodeID(binary.LittleEndian.Uint32(b[8:])),
		TakenAt:     getF(12),
		Range:       getF(36),
		FOV:         getF(44),
		Orientation: getF(52),
		Size:        int64(binary.LittleEndian.Uint64(b[60:])),
		Quality:     getF(68),
	}
	p.Location.X = getF(20)
	p.Location.Y = getF(28)
	for i := range p.Hist {
		p.Hist[i] = getF(76 + 8*i)
	}
	return p, b[photoWireSize:], nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (p *Photo) UnmarshalBinary(data []byte) error {
	dec, rest, err := DecodePhoto(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("model: %d trailing bytes after photo", len(rest))
	}
	*p = dec
	return nil
}

// AppendBinary appends the binary encoding of the list (a count prefix then
// each photo) to dst. It grows dst once, to the list's exact encoded size.
func (l PhotoList) AppendBinary(dst []byte) []byte {
	dst = slices.Grow(dst, 4+len(l)*photoWireSize)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(l)))
	dst = append(dst, n[:]...)
	for _, p := range l {
		dst = p.AppendBinary(dst)
	}
	return dst
}

// DecodePhotoList decodes a photo list from the front of b, returning the
// list and the remaining bytes.
func DecodePhotoList(b []byte) (PhotoList, []byte, error) {
	if len(b) < 4 {
		return nil, b, fmt.Errorf("%w: missing list header", ErrShortBuffer)
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint64(n)*photoWireSize > uint64(len(b)) {
		return nil, b, fmt.Errorf("%w: list claims %d photos", ErrShortBuffer, n)
	}
	out := make(PhotoList, 0, n)
	for i := uint32(0); i < n; i++ {
		var (
			p   Photo
			err error
		)
		p, b, err = DecodePhoto(b)
		if err != nil {
			return nil, b, fmt.Errorf("photo %d: %w", i, err)
		}
		out = append(out, p)
	}
	return out, b, nil
}
