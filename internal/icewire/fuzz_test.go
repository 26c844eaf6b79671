package icewire

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// FuzzDecodeBinary asserts the decoder's safety contract on arbitrary
// bytes: it never panics, never over-allocates (length fields are
// bounds-checked against the remaining input before any allocation), and
// anything it does accept re-encodes to a frame that decodes to the same
// envelope — accepted frames have exactly one meaning.
func FuzzDecodeBinary(f *testing.F) {
	// Seeds beyond the checked-in corpus (testdata/fuzz/FuzzDecodeBinary).
	c := NewBinary()
	frame, err := c.AppendEnvelope(nil, MsgPublish, "ox1", "ice-manager", 42, 5*sim.Second,
		&Datum{Topic: "ox1/spo2", Value: 97.25, Valid: true, Quality: 0.875, Sampled: 4987 * sim.Millisecond})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	f.Add([]byte{})
	f.Add([]byte{Version1, 6, 1, 0, 1, 'a', 1, 'b', 0, 0})
	// E9's forgery: a command framed as from the manager, which the
	// attacker's datagram carries under its own address (see foreignFrom).
	forged, err := c.AppendEnvelope(nil, MsgCommand, "ice-manager", "pump1", 100000, sim.Minute,
		&Command{ID: 90000, Name: "set-basal", Args: map[string]float64{"rate": 50}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(forged)

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewBinary()
		env, err := c.Decode(data)
		checkDecodeInto(t, c, data, env, err)
		if err != nil {
			return // rejection is always fine; panicking is not
		}
		// Bodies must decode (or reject) without panicking too.
		exerciseBodyDecoders(c, &env)

		// Accepted frames are canonical: re-encoding the decoded fields
		// with the raw body and auth reproduces the input bytes.
		re := appendSigningFrame(nil, env.Type, env.From, env.To, env.Seq, env.At, env.Body)
		re = appendString(re, string(env.Auth))
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted frame is not canonical:\nin  %x\nout %x", data, re)
		}
	})
}

// foreignFrom is the address E9's attacker sends from while its frames
// claim to come from the manager.
const foreignFrom = "attacker"

// checkDecodeInto asserts that DecodeInto's name hints change nothing:
// for the frame's own names, one-byte mutations of them, empty hints and
// a foreign sender, DecodeInto yields Decode's envelope field for field
// (env, err) and Decode's error, and overwrites a stale envelope whole.
func checkDecodeInto(t *testing.T, c *Binary, data []byte, env Envelope, err error) {
	t.Helper()
	hints := [][2]string{{"", ""}, {env.From, env.To}, {foreignFrom, env.To}}
	for _, name := range []string{env.From, env.To} {
		for _, m := range oneByteMutations(name) {
			hints = append(hints, [2]string{m, m})
		}
	}
	for _, h := range hints {
		got := Envelope{Type: MsgBye, From: "stale", To: "stale", Seq: 9, At: 9,
			Body: []byte{9}, Auth: []byte{9}, codec: NewBinary(), signing: []byte{9}}
		gotErr := c.DecodeInto(&got, data, h[0], h[1])
		if (gotErr == nil) != (err == nil) || (err != nil && gotErr.Error() != err.Error()) {
			t.Fatalf("hints %q: DecodeInto error %v, Decode error %v", h, gotErr, err)
		}
		if !reflect.DeepEqual(got, env) {
			t.Fatalf("hints %q: DecodeInto gave %+v, Decode %+v", h, got, env)
		}
	}
}

// oneByteMutations returns s with each of its first 16 bytes flipped in
// turn, plus s one byte shorter and one byte longer.
func oneByteMutations(s string) []string {
	var out []string
	for i := 0; i < len(s) && i < 16; i++ {
		b := []byte(s)
		b[i] ^= 1
		out = append(out, string(b))
	}
	if s != "" {
		out = append(out, s[:len(s)-1])
	}
	return append(out, s+"x")
}

// exerciseBodyDecoders runs the typed decoder matching the envelope's
// message type; any error is acceptable, any panic is the bug.
func exerciseBodyDecoders(c *Binary, env *Envelope) {
	switch env.Type {
	case MsgPublish:
		var d Datum
		_ = c.DecodeBody(env, &d)
	case MsgCommand:
		var cmd Command
		_ = c.DecodeBody(env, &cmd)
	case MsgCommandAck:
		var a CommandAck
		_ = c.DecodeBody(env, &a)
	case MsgAdmit:
		var a AdmitResult
		_ = c.DecodeBody(env, &a)
	case MsgAnnounce:
		var d Descriptor
		_ = c.DecodeBody(env, &d)
	}
}

// FuzzEnvelopeRoundTrip asserts encode∘decode is the identity for valid
// envelopes across every body type: arbitrary field values (including
// non-finite floats and non-UTF-8 strings) survive the binary wire
// bit-exactly, and re-encoding reproduces the identical frame.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	f.Add(byte(0), uint64(42), int64(5e9), "ox1", "ice-manager", "ox1/spo2", "x", uint64(0), 97.25, 0.875, true)
	f.Add(byte(1), uint64(7), int64(0), "mgr", "pump1", "set-basal", "rate", uint64(3), 2.5, 30.0, false)
	f.Add(byte(2), uint64(8), int64(1), "pump1", "mgr", "pump jammed", "", uint64(4), 0.0, 0.0, false)
	f.Add(byte(3), uint64(1), int64(2), "mgr", "dev", "kind mismatch", "", uint64(0), 0.0, 0.0, true)
	f.Add(byte(4), uint64(2), int64(3), "dev", "mgr", "acme", "mg/min", uint64(1), 1.0, 0.0, true)

	f.Fuzz(func(t *testing.T, kind byte, seq uint64, at int64, from, to, s1, s2 string, u1 uint64, v1, v2 float64, b1 bool) {
		if from == "" {
			from = "d" // Decode requires a sender, as the protocol does
		}
		var typ MsgType
		var body any
		switch kind % 5 {
		case 0:
			typ = MsgPublish
			body = &Datum{Topic: s1, Value: v1, Valid: b1, Quality: v2, Sampled: sim.Time(u1)}
		case 1:
			typ = MsgCommand
			cmd := &Command{ID: u1, Name: s1}
			if s2 != "" {
				cmd.Args = map[string]float64{s2: v1, s2 + "2": v2}
			}
			body = cmd
		case 2:
			typ = MsgCommandAck
			body = &CommandAck{ID: u1, OK: b1, Err: s1}
		case 3:
			typ = MsgAdmit
			body = &AdmitResult{OK: b1, Reason: s1}
		case 4:
			typ = MsgAnnounce
			body = &Descriptor{ID: from, Kind: DeviceKind(s1), Manufacturer: s2, Model: "m", Version: "v",
				Capabilities: []Capability{{Name: "c", Class: ClassSensor, Unit: s2, Criticality: int(u1 % 4)}}}
		}
		c := NewBinary()
		frame, err := c.AppendEnvelope(nil, typ, from, to, seq, sim.Time(at), body)
		if err != nil {
			t.Fatalf("valid envelope failed to encode: %v", err)
		}
		env, err := c.Decode(frame)
		if err != nil {
			t.Fatalf("own frame failed to decode: %v", err)
		}
		if env.Type != typ || env.From != from || env.To != to || env.Seq != seq || env.At != sim.Time(at) {
			t.Fatalf("header mismatch: %+v", env)
		}
		checkBodyIdentity(t, c, &env, body)

		// Re-encoding the decoded envelope must reproduce the frame.
		re, err := NewBinary().AppendEnvelope(nil, env.Type, env.From, env.To, env.Seq, env.At, body)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(re, frame) {
			t.Fatalf("encode is not deterministic:\n%x\nvs\n%x", frame, re)
		}
	})
}

func eqBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func checkBodyIdentity(t *testing.T, c *Binary, env *Envelope, in any) {
	t.Helper()
	switch want := in.(type) {
	case *Datum:
		var got Datum
		if err := c.DecodeBody(env, &got); err != nil {
			t.Fatalf("decode body: %v", err)
		}
		if got.Topic != want.Topic || got.Valid != want.Valid || got.Sampled != want.Sampled ||
			!eqBits(got.Value, want.Value) || !eqBits(got.Quality, want.Quality) {
			t.Fatalf("datum mismatch: %+v vs %+v", got, want)
		}
	case *Command:
		var got Command
		if err := c.DecodeBody(env, &got); err != nil {
			t.Fatalf("decode body: %v", err)
		}
		if got.ID != want.ID || got.Name != want.Name || len(got.Args) != len(want.Args) {
			t.Fatalf("command mismatch: %+v vs %+v", got, want)
		}
		for k, v := range want.Args {
			if gv, ok := got.Args[k]; !ok || !eqBits(gv, v) {
				t.Fatalf("arg %q mismatch", k)
			}
		}
	case *CommandAck:
		var got CommandAck
		if err := c.DecodeBody(env, &got); err != nil {
			t.Fatalf("decode body: %v", err)
		}
		if got != *want {
			t.Fatalf("ack mismatch: %+v vs %+v", got, want)
		}
	case *AdmitResult:
		var got AdmitResult
		if err := c.DecodeBody(env, &got); err != nil {
			t.Fatalf("decode body: %v", err)
		}
		if got != *want {
			t.Fatalf("admit mismatch: %+v vs %+v", got, want)
		}
	case *Descriptor:
		var got Descriptor
		if err := c.DecodeBody(env, &got); err != nil {
			t.Fatalf("decode body: %v", err)
		}
		if got.ID != want.ID || got.Kind != want.Kind || len(got.Capabilities) != len(want.Capabilities) {
			t.Fatalf("descriptor mismatch: %+v vs %+v", got, want)
		}
	}
}
