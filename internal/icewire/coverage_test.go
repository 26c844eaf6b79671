package icewire

import "testing"

// Every strict prefix of every golden frame must be rejected: the frame
// grammar is length-prefixed throughout, so no truncation can parse.
// (This is the deterministic cousin of FuzzDecodeBinary, and it walks
// the decoder into every truncation branch.)
func TestDecodeRejectsEveryTruncation(t *testing.T) {
	c := NewBinary()
	for _, g := range goldenEnvelopes() {
		frame := encodeGolden(t, g)
		for n := 0; n < len(frame); n++ {
			if _, err := c.Decode(frame[:n]); err == nil {
				t.Fatalf("%s truncated to %d/%d bytes decoded successfully", g.name, n, len(frame))
			}
		}
		// Likewise every strict prefix of a typed body.
		env, err := c.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		full := append([]byte(nil), env.Body...)
		for n := 0; n < len(full); n++ {
			e := env
			e.Body = full[:n]
			if err := bodyDecodeErr(c, &e); err == nil {
				t.Fatalf("%s body truncated to %d/%d bytes decoded successfully", g.name, n, len(full))
			}
		}
	}
}

// bodyDecodeErr decodes the body with the type-matched decoder and
// returns its error (nil for the body-less message types).
func bodyDecodeErr(c *Binary, env *Envelope) error {
	switch env.Type {
	case MsgPublish:
		var d Datum
		return c.DecodeBody(env, &d)
	case MsgCommand:
		var cmd Command
		return c.DecodeBody(env, &cmd)
	case MsgCommandAck:
		var a CommandAck
		return c.DecodeBody(env, &a)
	case MsgAdmit:
		var a AdmitResult
		return c.DecodeBody(env, &a)
	case MsgAnnounce:
		var d Descriptor
		return c.DecodeBody(env, &d)
	default:
		var d Datum
		return c.DecodeBody(env, &d) // heartbeat/bye: empty-body error
	}
}

// Value (non-pointer) bodies encode identically to their pointer forms.
func TestValueBodiesEncode(t *testing.T) {
	c := NewBinary()
	desc := testDescriptor()
	pairs := []struct {
		typ      MsgType
		val, ptr any
	}{
		{MsgPublish, Datum{Topic: "a/b", Value: 1}, &Datum{Topic: "a/b", Value: 1}},
		{MsgCommand, Command{ID: 1, Name: "x"}, &Command{ID: 1, Name: "x"}},
		{MsgCommandAck, CommandAck{ID: 1, OK: true}, &CommandAck{ID: 1, OK: true}},
		{MsgAdmit, AdmitResult{OK: true}, &AdmitResult{OK: true}},
		{MsgAnnounce, desc, &desc},
	}
	for _, p := range pairs {
		a, err := c.AppendEnvelope(nil, p.typ, "d", "m", 1, 0, p.val)
		if err != nil {
			t.Fatalf("%s value body: %v", p.typ, err)
		}
		b, err := c.AppendEnvelope(nil, p.typ, "d", "m", 1, 0, p.ptr)
		if err != nil {
			t.Fatalf("%s pointer body: %v", p.typ, err)
		}
		if string(a) != string(b) {
			t.Fatalf("%s: value and pointer bodies encode differently", p.typ)
		}
	}
}

// Descriptor validation and capability lookup (defined here with the
// wire type; exercised from core as well).
func TestDescriptorValidate(t *testing.T) {
	good := testDescriptor()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*Descriptor){
		"missing id":       func(d *Descriptor) { d.ID = "" },
		"reserved chars":   func(d *Descriptor) { d.ID = "a/b" },
		"missing kind":     func(d *Descriptor) { d.Kind = "" },
		"unnamed cap":      func(d *Descriptor) { d.Capabilities[0].Name = "" },
		"duplicate cap":    func(d *Descriptor) { d.Capabilities[1].Name = d.Capabilities[0].Name },
		"unknown class":    func(d *Descriptor) { d.Capabilities[0].Class = "quantum" },
		"criticality low":  func(d *Descriptor) { d.Capabilities[0].Criticality = 0 },
		"criticality high": func(d *Descriptor) { d.Capabilities[0].Criticality = 4 },
		"whitespace in id": func(d *Descriptor) { d.ID = "a b" },
	}
	for name, mutate := range cases {
		d := testDescriptor()
		mutate(&d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

func TestDescriptorHas(t *testing.T) {
	d := testDescriptor()
	if !d.Has("rate", ClassSensor) || !d.Has("stop", ClassActuator) {
		t.Fatal("declared capabilities not found")
	}
	if d.Has("rate", ClassActuator) || d.Has("nope", ClassSensor) {
		t.Fatal("phantom capability found")
	}
}
