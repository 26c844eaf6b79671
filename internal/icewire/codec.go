package icewire

import (
	"fmt"
	"time"
)

// CodecStats is the encode-side accounting a codec accumulates: frames
// and bytes are exact; EncodeNS is estimated by timing one encode in
// every 64 and scaling, so the hot path stays free of per-frame clock
// reads.
type CodecStats struct {
	Frames   uint64 // envelopes encoded
	Bytes    uint64 // encoded frame bytes (pre-auth)
	EncodeNS uint64 // estimated wall time spent encoding, in ns
}

// codecStats implements the sampling logic.
type codecStats struct {
	frames   uint64
	bytes    uint64
	encodeNS uint64
	t0       time.Time
}

// beginSample starts timing if this frame is a sampled one.
func (s *codecStats) beginSample() bool {
	if s.frames&63 == 0 {
		s.t0 = time.Now()
		return true
	}
	return false
}

// endSample accounts one encoded frame of n bytes.
func (s *codecStats) endSample(sampled bool, n int) {
	if sampled {
		s.encodeNS += uint64(time.Since(s.t0)) * 64
	}
	s.frames++
	s.bytes += uint64(n)
}

func (s *codecStats) stats() CodecStats {
	return CodecStats{Frames: s.frames, Bytes: s.bytes, EncodeNS: s.encodeNS}
}

// DecodeBody decodes the envelope's body into out using the codec that
// decoded the envelope. A hand-built envelope has no codec to decode
// with and errors.
func (e *Envelope) DecodeBody(out any) error {
	if e.codec == nil {
		return fmt.Errorf("icewire: %s envelope was not decoded from a frame", e.Type)
	}
	return e.codec.DecodeBody(e, out)
}

// SigningBytes returns the canonical byte string an authenticator signs:
// the binary framing of every field except Auth. An envelope decoded
// from a frame returns the frame's own signing window (zero-copy),
// valid only while the frame buffer is; a hand-built one allocates.
func (e *Envelope) SigningBytes() []byte {
	if e.signing != nil {
		return e.signing
	}
	return appendSigningFrame(nil, e.Type, e.From, e.To, e.Seq, e.At, e.Body)
}
