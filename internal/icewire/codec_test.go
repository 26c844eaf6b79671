package icewire

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

func testDescriptor() Descriptor {
	return Descriptor{
		ID: "pump1", Kind: KindInfusionPump,
		Manufacturer: "acme", Model: "pca-9", Version: "2.1",
		Capabilities: []Capability{
			{Name: "rate", Class: ClassSensor, Unit: "mg/min", Criticality: 3},
			{Name: "stop", Class: ClassActuator, Criticality: 3},
			{Name: "lockout", Class: ClassSetting, Unit: "min", Criticality: 2},
			{Name: "door-open", Class: ClassEvent, Criticality: 1},
		},
	}
}

// Every typed body must round-trip bit-exactly through the codec.
func TestBodyRoundTrip(t *testing.T) {
	bodies := []struct {
		typ  MsgType
		in   any
		out  func() any
		same func(in, out any) bool
	}{
		{
			MsgPublish,
			&Datum{Topic: "ox1/spo2", Value: 97.25, Valid: true, Quality: 0.875, Sampled: 123 * sim.Millisecond},
			func() any { return &Datum{} },
			func(in, out any) bool { return *in.(*Datum) == *out.(*Datum) },
		},
		{
			MsgCommand,
			&Command{ID: 42, Name: "set-basal", Args: map[string]float64{"rate": 2.5, "cap": 30}},
			func() any { return &Command{} },
			func(in, out any) bool {
				a, b := in.(*Command), out.(*Command)
				if a.ID != b.ID || a.Name != b.Name || len(a.Args) != len(b.Args) {
					return false
				}
				for k, v := range a.Args {
					if b.Args[k] != v {
						return false
					}
				}
				return true
			},
		},
		{
			MsgCommand,
			&Command{ID: 7, Name: "stop"},
			func() any { return &Command{} },
			func(in, out any) bool {
				a, b := in.(*Command), out.(*Command)
				return a.ID == b.ID && a.Name == b.Name && len(b.Args) == 0
			},
		},
		{
			MsgCommandAck,
			&CommandAck{ID: 42, OK: false, Err: "pump jammed"},
			func() any { return &CommandAck{} },
			func(in, out any) bool { return *in.(*CommandAck) == *out.(*CommandAck) },
		},
		{
			MsgAdmit,
			&AdmitResult{OK: false, Reason: "kind mismatch"},
			func() any { return &AdmitResult{} },
			func(in, out any) bool { return *in.(*AdmitResult) == *out.(*AdmitResult) },
		},
		{
			MsgAnnounce,
			func() any { d := testDescriptor(); return &d }(),
			func() any { return &Descriptor{} },
			func(in, out any) bool {
				a, b := in.(*Descriptor), out.(*Descriptor)
				if a.ID != b.ID || a.Kind != b.Kind || a.Manufacturer != b.Manufacturer ||
					a.Model != b.Model || a.Version != b.Version || len(a.Capabilities) != len(b.Capabilities) {
					return false
				}
				for i := range a.Capabilities {
					if a.Capabilities[i] != b.Capabilities[i] {
						return false
					}
				}
				return true
			},
		},
	}
	codec := NewBinary()
	for _, tc := range bodies {
		frame, err := codec.AppendEnvelope(nil, tc.typ, "dev", "mgr", 9, 55*sim.Second, tc.in)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.typ, err)
		}
		env, err := codec.Decode(frame)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.typ, err)
		}
		if env.Type != tc.typ || env.From != "dev" || env.To != "mgr" || env.Seq != 9 || env.At != 55*sim.Second {
			t.Fatalf("%s: header mismatch: %+v", tc.typ, env)
		}
		out := tc.out()
		if err := env.DecodeBody(out); err != nil {
			t.Fatalf("%s: decode body: %v", tc.typ, err)
		}
		if !tc.same(tc.in, out) {
			t.Fatalf("%s: round trip mismatch:\nin  %+v\nout %+v", tc.typ, tc.in, out)
		}
	}
}

// Body-less messages (heartbeat, bye) round-trip with empty bodies, and
// decoding a body out of them errors rather than fabricating one.
func TestEmptyBodyMessages(t *testing.T) {
	codec := NewBinary()
	for _, typ := range []MsgType{MsgHeartbeat, MsgBye} {
		frame, err := codec.AppendEnvelope(nil, typ, "dev", "mgr", 3, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		env, err := codec.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		if len(env.Body) != 0 {
			t.Fatalf("%s: unexpected body %q", typ, env.Body)
		}
		var d Datum
		if err := env.DecodeBody(&d); err == nil || !strings.Contains(err.Error(), "empty body") {
			t.Fatalf("%s: empty body decode err = %v", typ, err)
		}
	}
}

// Binary PatchAuth attaches the tag in place; Signing exposes the
// zero-copy signing window; a decoded frame verifies against the same
// window the sender signed.
func TestBinarySigningAndPatchAuth(t *testing.T) {
	c := NewBinary()
	frame, err := c.AppendEnvelope(nil, MsgPublish, "dev", "mgr", 4, 9*sim.Second, &Datum{Topic: "dev/spo2", Value: 95})
	if err != nil {
		t.Fatal(err)
	}
	sig, err := c.Signing(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sig, frame[:len(frame)-1]) {
		t.Fatal("unsigned binary frame's signing window is not frame[:len-1]")
	}
	tag := bytes.Repeat([]byte{0xAB}, 32)
	patched, err := c.PatchAuth(frame, tag)
	if err != nil {
		t.Fatal(err)
	}
	env, err := c.Decode(patched)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(env.Auth, tag) {
		t.Fatalf("Auth = %x, want %x", env.Auth, tag)
	}
	if got := env.SigningBytes(); !bytes.Equal(got, sig) {
		t.Fatal("receiver's signing window differs from what the sender signed")
	}
	// Double-patching is rejected.
	if _, err := c.PatchAuth(patched, tag); err == nil {
		t.Fatal("patching an already-authenticated frame succeeded")
	}
	// Empty tags are a no-op.
	again, err := c.AppendEnvelope(nil, MsgHeartbeat, "dev", "mgr", 5, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	same, err := c.PatchAuth(again, nil)
	if err != nil || !bytes.Equal(same, again) {
		t.Fatalf("empty-tag patch: %v", err)
	}
}

// Hand-built envelopes (no codec) still produce canonical signing bytes,
// including message types outside the protocol enum, but have no codec
// to decode their body with.
func TestSigningBytesHandBuilt(t *testing.T) {
	e := Envelope{Type: MsgPublish, From: "a", To: "b", Seq: 1, At: 2, Body: []byte(`{"x":1}`)}
	s1 := e.SigningBytes()
	e.Auth = []byte{1, 2, 3}
	s2 := e.SigningBytes()
	if !bytes.Equal(s1, s2) {
		t.Fatal("SigningBytes varies with Auth")
	}
	exotic := Envelope{Type: "future-type", From: "a", To: "b", Seq: 1}
	if len(exotic.SigningBytes()) == 0 {
		t.Fatal("exotic type not signable")
	}
	known := Envelope{Type: MsgBye, From: "a", To: "b", Seq: 1}
	if bytes.Equal(exotic.SigningBytes(), known.SigningBytes()) {
		t.Fatal("exotic and known types share signing bytes")
	}
	var d Datum
	if err := e.DecodeBody(&d); err == nil || !strings.Contains(err.Error(), "not decoded from a frame") {
		t.Fatalf("hand-built DecodeBody err = %v", err)
	}
}

// Decoder hardening: every malformed frame errors cleanly.
func TestBinaryDecodeRejects(t *testing.T) {
	c := NewBinary()
	good, err := c.AppendEnvelope(nil, MsgPublish, "dev", "mgr", 4, 9, &Datum{Topic: "dev/spo2", Value: 95})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":            {},
		"one byte":         {Version1},
		"bad version":      append([]byte{0x02}, good[1:]...),
		"unknown type":     append([]byte{Version1, 0x7F}, good[2:]...),
		"zero type":        append([]byte{Version1, 0x00}, good[2:]...),
		"truncated header": good[:4],
		"truncated body":   good[:len(good)-6],
		"trailing garbage": append(append([]byte(nil), good...), 0xFF),
		"empty sender": func() []byte {
			f, _ := NewBinary().AppendEnvelope(nil, MsgHeartbeat, "", "mgr", 1, 0, nil)
			return f
		}(),
		"huge field length": {Version1, 3, 1, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		"overlong varint":   append([]byte{Version1, 3}, bytes.Repeat([]byte{0x80}, 11)...),
	}
	for name, frame := range cases {
		if _, err := c.Decode(frame); err == nil {
			t.Errorf("%s: decode accepted %x", name, frame)
		}
	}
}

// Body decoder hardening: malformed bodies inside a well-formed envelope
// error cleanly for every typed decoder.
func TestBinaryDecodeBodyRejects(t *testing.T) {
	c := NewBinary()
	env := Envelope{Type: MsgPublish, Body: []byte{0xFF, 0xFF}, codec: c}
	var d Datum
	if err := env.DecodeBody(&d); err == nil {
		t.Error("garbage datum body accepted")
	}
	// A valid datum body with a trailing byte must be rejected.
	frame, err := c.AppendEnvelope(nil, MsgPublish, "dev", "mgr", 1, 0, &Datum{Topic: "a/b"})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := c.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	e2.Body = append(append([]byte(nil), e2.Body...), 0x00)
	if err := e2.DecodeBody(&d); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing body byte: err = %v", err)
	}
	// Bad bool byte.
	env3, err := c.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the valid flag: topic "a/b" (1+3 bytes) + value (8) → offset 12 in body.
	body := append([]byte(nil), env3.Body...)
	body[12] = 2
	env3.Body = body
	if err := env3.DecodeBody(&d); err == nil || !strings.Contains(err.Error(), "bool") {
		t.Errorf("bool byte 2: err = %v", err)
	}
	// Command arg count larger than the body can hold.
	cmdFrame, err := c.AppendEnvelope(nil, MsgCommand, "m", "d", 1, 0, &Command{ID: 1, Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	e4, err := c.Decode(cmdFrame)
	if err != nil {
		t.Fatal(err)
	}
	cb := append([]byte(nil), e4.Body...)
	cb[len(cb)-1] = 0x40 // claim 64 args with no bytes behind them
	e4.Body = cb
	var cmd Command
	if err := e4.DecodeBody(&cmd); err == nil {
		t.Error("oversized arg count accepted")
	}
	// Descriptor with an unknown class code.
	desc := testDescriptor()
	aframe, err := c.AppendEnvelope(nil, MsgAnnounce, "pump1", "mgr", 1, 0, &desc)
	if err != nil {
		t.Fatal(err)
	}
	e5, err := c.Decode(aframe)
	if err != nil {
		t.Fatal(err)
	}
	db := append([]byte(nil), e5.Body...)
	// Find the first class code byte (after id/kind/manufacturer/model/
	// version strings + ncaps + first name) and corrupt it.
	idx := bytes.IndexByte(db, byte(classCodes[ClassSensor]))
	for i := range db {
		if db[i] == 1 && i > 20 { // first cap's class byte region
			idx = i
			break
		}
	}
	db[idx] = 0x7F
	e5.Body = db
	var dd Descriptor
	if err := e5.DecodeBody(&dd); err == nil {
		t.Error("unknown class code accepted")
	}
	// Unsupported out types.
	var s string
	if err := env3.DecodeBody(&s); err == nil {
		t.Error("decode into *string accepted")
	}
}

// Unsupported bodies and types error on encode instead of panicking.
func TestBinaryEncodeRejects(t *testing.T) {
	c := NewBinary()
	if _, err := c.AppendEnvelope(nil, "not-a-type", "a", "b", 1, 0, nil); err == nil {
		t.Error("unknown message type encoded")
	}
	if _, err := c.AppendEnvelope(nil, MsgPublish, "a", "b", 1, 0, struct{ X int }{1}); err == nil {
		t.Error("arbitrary body type encoded")
	}
	bad := testDescriptor()
	bad.Capabilities[0].Class = "quantum"
	if _, err := c.AppendEnvelope(nil, MsgAnnounce, "a", "b", 1, 0, &bad); err == nil {
		t.Error("unknown capability class encoded")
	}
}

// NaN and infinities round-trip bit-exactly through the codec.
func TestBinaryNonFiniteFloats(t *testing.T) {
	c := NewBinary()
	in := &Datum{Topic: "a/b", Value: math.NaN(), Quality: math.Inf(1)}
	frame, err := c.AppendEnvelope(nil, MsgPublish, "a", "b", 1, 0, in)
	if err != nil {
		t.Fatal(err)
	}
	env, err := c.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	var out Datum
	if err := env.DecodeBody(&out); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(out.Value) != math.Float64bits(in.Value) ||
		math.Float64bits(out.Quality) != math.Float64bits(in.Quality) {
		t.Fatal("non-finite floats did not round-trip bit-exactly")
	}
}

// Command args have exactly one canonical encoding regardless of map
// iteration order.
func TestCommandArgsCanonicalOrder(t *testing.T) {
	c := NewBinary()
	args := map[string]float64{"z": 1, "a": 2, "m": 3, "b": 4, "q": 5}
	var first []byte
	for i := 0; i < 20; i++ {
		frame, err := c.AppendEnvelope(nil, MsgCommand, "m", "d", 1, 0, &Command{ID: 1, Name: "x", Args: args})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = append([]byte(nil), frame...)
		} else if !bytes.Equal(first, frame) {
			t.Fatal("command encoding varies with map iteration order")
		}
	}
}

// The decoder enforces the canonical arg order: out-of-order and
// duplicate keys are rejected, so no two distinct byte strings decode
// to the same command.
func TestCommandArgsNonCanonicalRejected(t *testing.T) {
	c := NewBinary()
	makeBody := func(keys ...string) []byte {
		body := appendUvarintForTest(nil, 1) // id
		body = appendString(body, "x")       // name
		body = appendUvarintForTest(body, uint64(len(keys)))
		for _, k := range keys {
			body = appendString(body, k)
			body = appendFloat(body, 1)
		}
		return body
	}
	var cmd Command
	ok := Envelope{Type: MsgCommand, Body: makeBody("a", "b"), codec: c}
	if err := c.DecodeBody(&ok, &cmd); err != nil {
		t.Fatalf("canonical args rejected: %v", err)
	}
	for name, keys := range map[string][]string{
		"out of order": {"b", "a"},
		"duplicate":    {"a", "a"},
	} {
		env := Envelope{Type: MsgCommand, Body: makeBody(keys...), codec: c}
		if err := c.DecodeBody(&env, &cmd); err == nil {
			t.Errorf("%s args accepted", name)
		}
	}
}

// Stats count frames and bytes on the encode side.
func TestCodecStats(t *testing.T) {
	c := NewBinary()
	var total int
	for i := 0; i < 10; i++ {
		frame, err := c.AppendEnvelope(nil, MsgHeartbeat, "d", "m", uint64(i), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		total += len(frame)
	}
	st := c.Stats()
	if st.Frames != 10 || st.Bytes != uint64(total) {
		t.Fatalf("stats = %+v, want 10 frames / %d bytes", st, total)
	}
}

// Interned strings: decoding the same sender repeatedly yields the same
// string value and the table stays bounded.
func TestInternBounded(t *testing.T) {
	c := NewBinary()
	for i := 0; i < 2*maxInternEntries; i++ {
		b := []byte{byte(i), byte(i >> 8), byte(i >> 16)}
		_ = c.internString(b)
	}
	if len(c.intern) > maxInternEntries {
		t.Fatalf("intern table grew to %d entries", len(c.intern))
	}
	if c.internString(nil) != "" {
		t.Fatal("empty intern")
	}
}

// appendUvarintForTest keeps the hand-built frames above readable.
func appendUvarintForTest(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}
