package icewire

import (
	"testing"

	"repro/internal/sim"
)

// benchDatum is the steady-state message shape: one sensor observation.
var benchDatum = Datum{Topic: "ox1/spo2", Value: 97.25, Valid: true, Quality: 0.875, Sampled: 4987 * sim.Millisecond}

// BenchmarkEnvelopeCodec times the full per-message codec cost on the
// wire's hot path: one op = encode one publish envelope into a reused
// buffer, decode the frame, and decode the typed body (0 allocs/op).
func BenchmarkEnvelopeCodec(b *testing.B) {
	c := NewBinary()
	var (
		buf   []byte
		datum Datum
		env   Envelope
		err   error
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, err = c.AppendEnvelope(buf[:0], MsgPublish, "ox1", "ice-manager", uint64(i), 5*sim.Second, &benchDatum)
		if err != nil {
			b.Fatal(err)
		}
		env, err = c.Decode(buf)
		if err != nil {
			b.Fatal(err)
		}
		if err = c.DecodeBody(&env, &datum); err != nil {
			b.Fatal(err)
		}
	}
	if datum.Topic != benchDatum.Topic {
		b.Fatal("round trip corrupted the datum")
	}
	b.SetBytes(int64(len(buf)))
}

// BenchmarkEnvelopeCodecSigned times the authenticated frame path:
// encode, extract signing bytes, patch a fixed tag in.
func BenchmarkEnvelopeCodecSigned(b *testing.B) {
	c := NewBinary()
	tag := make([]byte, 32)
	var (
		buf []byte
		err error
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, err = c.AppendEnvelope(buf[:0], MsgPublish, "ox1", "ice-manager", uint64(i), 5*sim.Second, &benchDatum)
		if err != nil {
			b.Fatal(err)
		}
		if _, err = c.Signing(buf); err != nil {
			b.Fatal(err)
		}
		if buf, err = c.PatchAuth(buf, tag); err != nil {
			b.Fatal(err)
		}
	}
}

// The binary codec's steady-state encode+decode+body round trip must be
// allocation-free: the frame lands in the caller's reused buffer, the
// envelope's strings are interned, and body/auth are subslices.
func TestAllocsEnvelopeCodec(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation gates are meaningless under -race")
	}
	c := NewBinary()
	var (
		buf   []byte
		env   Envelope
		datum Datum
		err   error
	)
	seq := uint64(0)
	round := func() {
		seq++
		buf, err = c.AppendEnvelope(buf[:0], MsgPublish, "ox1", "ice-manager", seq, 5*sim.Second, &benchDatum)
		if err != nil {
			t.Fatal(err)
		}
		if env, err = c.Decode(buf); err != nil {
			t.Fatal(err)
		}
		if err = c.DecodeBody(&env, &datum); err != nil {
			t.Fatal(err)
		}
	}
	round() // warm the buffer and intern table
	if got := testing.AllocsPerRun(2000, round); got != 0 {
		t.Fatalf("binary encode+decode round trip allocates %v/op, want 0", got)
	}
}
