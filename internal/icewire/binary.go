package icewire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/sim"
)

// Binary frame layout, version 1. All multi-byte integers are unsigned
// LEB128 varints (encoding/binary Uvarint); strings and byte fields are
// length-prefixed (uvarint length, then the raw bytes); float64s are
// IEEE-754 bits, little-endian, fixed 8 bytes.
//
//	offset 0  version byte (0x01)
//	offset 1  message type code (see typeCode)
//	uvarint   seq
//	uvarint   at   (sim.Time nanoseconds, as uint64)
//	bytes     from (uvarint length + UTF-8)
//	bytes     to
//	bytes     body (typed encoding, selected by the message type)
//	bytes     auth (empty on unsigned frames)
//
// The canonical signing window is everything before the auth field, so a
// received frame verifies against a plain subslice and an unsigned frame
// signs as frame[:len-1] — no re-serialization on either side.
//
// Body encodings:
//
//	publish      topic, f64 value, bool valid, f64 quality, uvarint sampled
//	command      uvarint id, name, uvarint nargs, nargs × (key, f64),
//	             keys sorted ascending (canonical: one encoding per value)
//	command-ack  uvarint id, bool ok, err
//	admit        bool ok, reason
//	announce     id, kind, manufacturer, model, version, uvarint ncaps,
//	             ncaps × (name, class code byte, unit, uvarint criticality)
//	heartbeat    empty
//	bye          empty
//
// Bools are one byte, strictly 0 or 1. Decoders reject out-of-range
// codes, truncated fields, and trailing garbage, so every accepted frame
// has exactly one encoding — the property the golden vectors pin and the
// fuzz targets defend.
const Version1 = 0x01

// maxInternEntries caps the decoder's string intern table so adversarial
// traffic cannot grow it without bound; beyond the cap strings are
// returned uninterned (correct, just no longer allocation-free).
const maxInternEntries = 1 << 12

// typeCode returns a message type's frame code; ok is false for a type
// outside the wire protocol. typeNames is its inverse.
func typeCode(t MsgType) (code byte, ok bool) {
	switch t {
	case MsgAnnounce:
		return 1, true
	case MsgAdmit:
		return 2, true
	case MsgPublish:
		return 3, true
	case MsgCommand:
		return 4, true
	case MsgCommandAck:
		return 5, true
	case MsgHeartbeat:
		return 6, true
	case MsgBye:
		return 7, true
	}
	return 0, false
}

var typeNames = [8]MsgType{
	1: MsgAnnounce, 2: MsgAdmit, 3: MsgPublish, 4: MsgCommand,
	5: MsgCommandAck, 6: MsgHeartbeat, 7: MsgBye,
}

var classCodes = map[CapabilityClass]byte{
	ClassSensor: 1, ClassActuator: 2, ClassSetting: 3, ClassEvent: 4,
}

var classNames = [5]CapabilityClass{
	1: ClassSensor, 2: ClassActuator, 3: ClassSetting, 4: ClassEvent,
}

// Binary is the ICE wire codec. One instance serves one simulation
// cell and must not be shared across kernels or goroutines (cells are
// single-threaded by construction; parallelism lives in the fleet
// layer): the string intern table keeps steady-state decode
// allocation-free for the strings DecodeInto's hints do not cover
// (topics, command names and args, ack errors, mismatched names), and
// the scratch buffers keep encode appends in place.
type Binary struct {
	st     codecStats
	intern map[string]string
	body   []byte   // scratch: body encoded before its length prefix is known
	keys   []string // scratch: canonical ordering of command args
}

// NewBinary returns a fresh binary codec instance.
func NewBinary() *Binary {
	return &Binary{intern: make(map[string]string)}
}

// Stats reports cumulative encode-side accounting.
func (c *Binary) Stats() CodecStats { return c.st.stats() }

// AppendEnvelope encodes one complete envelope — framing plus typed
// body — directly into dst and returns the extended slice. body is nil
// or one of *Datum, *Command, *CommandAck, *AdmitResult, *Descriptor
// (value forms also accepted). The frame is unsigned; use Signing +
// PatchAuth to authenticate it.
func (c *Binary) AppendEnvelope(dst []byte, t MsgType, from, to string, seq uint64, at sim.Time, body any) ([]byte, error) {
	sampled := c.st.beginSample()
	start := len(dst)
	code, ok := typeCode(t)
	if !ok {
		return dst, fmt.Errorf("icewire: cannot binary-encode message type %q", t)
	}
	bodyBytes, err := c.appendBody(c.body[:0], body)
	if err != nil {
		return dst, fmt.Errorf("icewire: encoding %s body: %w", t, err)
	}
	c.body = bodyBytes
	dst = append(dst, Version1, code)
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(at))
	dst = appendString(dst, from)
	dst = appendString(dst, to)
	dst = binary.AppendUvarint(dst, uint64(len(bodyBytes)))
	dst = append(dst, bodyBytes...)
	dst = append(dst, 0) // auth: empty on unsigned frames
	c.st.endSample(sampled, len(dst)-start)
	return dst, nil
}

// appendBody encodes a typed body into dst.
func (c *Binary) appendBody(dst []byte, body any) ([]byte, error) {
	switch b := body.(type) {
	case nil:
		return dst, nil
	case *Datum:
		return appendDatum(dst, b), nil
	case Datum:
		return appendDatum(dst, &b), nil
	case *Command:
		return c.appendCommand(dst, b), nil
	case Command:
		return c.appendCommand(dst, &b), nil
	case *CommandAck:
		return appendAck(dst, b), nil
	case CommandAck:
		return appendAck(dst, &b), nil
	case *AdmitResult:
		return appendAdmit(dst, b), nil
	case AdmitResult:
		return appendAdmit(dst, &b), nil
	case *Descriptor:
		return appendDescriptor(dst, b)
	case Descriptor:
		return appendDescriptor(dst, &b)
	default:
		return dst, fmt.Errorf("unsupported body type %T", body)
	}
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendDatum(dst []byte, d *Datum) []byte {
	dst = appendString(dst, d.Topic)
	dst = appendFloat(dst, d.Value)
	dst = appendBool(dst, d.Valid)
	dst = appendFloat(dst, d.Quality)
	return binary.AppendUvarint(dst, uint64(d.Sampled))
}

func (c *Binary) appendCommand(dst []byte, cmd *Command) []byte {
	dst = binary.AppendUvarint(dst, cmd.ID)
	dst = appendString(dst, cmd.Name)
	dst = binary.AppendUvarint(dst, uint64(len(cmd.Args)))
	if len(cmd.Args) == 0 {
		return dst
	}
	// Canonical arg order: keys sorted ascending, via the reusable
	// scratch and an insertion sort (sort.Strings would let the slice
	// escape through its interface argument).
	keys := c.keys[:0]
	for k := range cmd.Args {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	c.keys = keys
	for _, k := range keys {
		dst = appendString(dst, k)
		dst = appendFloat(dst, cmd.Args[k])
	}
	return dst
}

func appendAck(dst []byte, a *CommandAck) []byte {
	dst = binary.AppendUvarint(dst, a.ID)
	dst = appendBool(dst, a.OK)
	return appendString(dst, a.Err)
}

func appendAdmit(dst []byte, a *AdmitResult) []byte {
	dst = appendBool(dst, a.OK)
	return appendString(dst, a.Reason)
}

func appendDescriptor(dst []byte, d *Descriptor) ([]byte, error) {
	dst = appendString(dst, d.ID)
	dst = appendString(dst, string(d.Kind))
	dst = appendString(dst, d.Manufacturer)
	dst = appendString(dst, d.Model)
	dst = appendString(dst, d.Version)
	dst = binary.AppendUvarint(dst, uint64(len(d.Capabilities)))
	for _, cb := range d.Capabilities {
		code, ok := classCodes[cb.Class]
		if !ok {
			return dst, fmt.Errorf("capability %q has unknown class %q", cb.Name, cb.Class)
		}
		dst = appendString(dst, cb.Name)
		dst = append(dst, code)
		dst = appendString(dst, cb.Unit)
		if cb.Criticality < 0 {
			return dst, fmt.Errorf("capability %q has negative criticality", cb.Name)
		}
		dst = binary.AppendUvarint(dst, uint64(cb.Criticality))
	}
	return dst, nil
}

// appendSigningFrame is the canonical signing form: the binary framing
// of all fields except Auth. Message types outside the wire protocol
// (possible on hand-built envelopes) encode as 0xFF + the type string — a code no real binary frame can
// start its signing window with, so exotic envelopes stay signable
// without colliding with protocol frames.
func appendSigningFrame(dst []byte, t MsgType, from, to string, seq uint64, at sim.Time, body []byte) []byte {
	dst = append(dst, Version1)
	if code, ok := typeCode(t); ok {
		dst = append(dst, code)
	} else {
		dst = append(dst, 0xFF)
		dst = appendString(dst, string(t))
	}
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(at))
	dst = appendString(dst, from)
	dst = appendString(dst, to)
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...)
}

// --- decoding ---

// reader is a bounds-checked cursor over one frame. Every read reports
// failure instead of panicking, which is what lets the fuzz targets
// assert "decode never panics on arbitrary bytes".
type reader struct {
	data []byte
	off  int
}

var errTruncated = errors.New("icewire: truncated frame")

func (r *reader) byte() (byte, error) {
	if r.off >= len(r.data) {
		return 0, errTruncated
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, errors.New("icewire: bad varint")
	}
	// Reject non-minimal encodings (a trailing zero group): every value
	// has exactly one accepted wire form, so signed frames cannot be
	// mutated into a second byte string with the same meaning.
	if n > 1 && r.data[r.off+n-1] == 0 {
		return 0, errors.New("icewire: non-minimal varint")
	}
	r.off += n
	return v, nil
}

// bytes returns a length-prefixed field as a subslice of the frame.
func (r *reader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.data)-r.off) {
		return nil, errTruncated
	}
	b := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

func (r *reader) float() (float64, error) {
	if len(r.data)-r.off < 8 {
		return 0, errTruncated
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v, nil
}

func (r *reader) bool() (bool, error) {
	b, err := r.byte()
	if err != nil {
		return false, err
	}
	switch b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("icewire: bool byte 0x%02x", b)
	}
}

func (r *reader) rest() int { return len(r.data) - r.off }

// internString returns a stable string for the bytes, allocation-free
// once the value has been seen (the compiler elides the []byte→string
// conversion in the map lookup).
func (c *Binary) internString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := c.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(c.intern) < maxInternEntries {
		c.intern[s] = s
	}
	return s
}

// hinted returns hint when b spells it, and b interned otherwise.
func (c *Binary) hinted(b []byte, hint string) string {
	if string(b) == hint {
		return hint
	}
	return c.internString(b)
}

// Decode parses one frame. The returned envelope's From/To are interned,
// and Body, Auth and the signing window alias the input buffer; the
// envelope is only valid as long as data is.
func (c *Binary) Decode(data []byte) (Envelope, error) {
	var env Envelope
	err := c.DecodeInto(&env, data, "", "")
	return env, err
}

// DecodeInto is Decode writing into env, which it overwrites whole (and
// zeroes on error). from and to are name hints, typically the addresses
// of the datagram that carried the frame: where the frame's sender or
// recipient bytes equal a hint, the envelope takes the hint string and
// the intern table is not consulted. A hint never changes what decodes:
// a frame whose names differ from its datagram's still yields its own.
func (c *Binary) DecodeInto(env *Envelope, data []byte, from, to string) error {
	err := c.decodeFrame(env, data, from, to)
	if err != nil {
		*env = Envelope{}
	}
	return err
}

// decodeFrame is DecodeInto's parse; it writes env only on success.
func (c *Binary) decodeFrame(env *Envelope, data []byte, from, to string) error {
	if len(data) < 2 {
		return errTruncated
	}
	if data[0] != Version1 {
		return fmt.Errorf("icewire: unsupported frame version 0x%02x", data[0])
	}
	code := data[1]
	if int(code) >= len(typeNames) || typeNames[code] == "" {
		return fmt.Errorf("icewire: unknown message type code 0x%02x", code)
	}
	r := reader{data: data, off: 2}
	seq, err := r.uvarint()
	if err != nil {
		return err
	}
	at, err := r.uvarint()
	if err != nil {
		return err
	}
	fromB, err := r.bytes()
	if err != nil {
		return err
	}
	toB, err := r.bytes()
	if err != nil {
		return err
	}
	body, err := r.bytes()
	if err != nil {
		return err
	}
	signingEnd := r.off
	auth, err := r.bytes()
	if err != nil {
		return err
	}
	if r.rest() != 0 {
		return fmt.Errorf("icewire: %d trailing bytes after frame", r.rest())
	}
	if len(fromB) == 0 {
		return errors.New("core: envelope missing sender")
	}
	// Field by field, every field: a composite literal would be built
	// aside and copied in.
	env.Type = typeNames[code]
	env.From = c.hinted(fromB, from)
	env.To = c.hinted(toB, to)
	env.Seq = seq
	env.At = sim.Time(at)
	env.Body = nonEmpty(body)
	env.Auth = nonEmpty(auth)
	env.codec = c
	env.signing = data[:signingEnd]
	return nil
}

// nonEmpty maps an empty field to nil, as envelopes carry absent bodies
// and tags.
func nonEmpty(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b
}

// DecodeBody decodes e's body into out, which must be a pointer to one
// of the body types AppendEnvelope accepts.
func (c *Binary) DecodeBody(e *Envelope, out any) error {
	if len(e.Body) == 0 {
		return fmt.Errorf("core: %s envelope has empty body", e.Type)
	}
	r := reader{data: e.Body}
	var err error
	switch v := out.(type) {
	case *Datum:
		err = c.readDatum(&r, v)
	case *Command:
		err = c.readCommand(&r, v)
	case *CommandAck:
		err = c.readAck(&r, v)
	case *AdmitResult:
		err = readAdmit(&r, v)
	case *Descriptor:
		err = c.readDescriptor(&r, v)
	default:
		return fmt.Errorf("icewire: cannot binary-decode into %T", out)
	}
	if err == nil && r.rest() != 0 {
		err = fmt.Errorf("%d trailing body bytes", r.rest())
	}
	if err != nil {
		return fmt.Errorf("core: decoding %s body: %w", e.Type, err)
	}
	return nil
}

func (c *Binary) readDatum(r *reader, d *Datum) error {
	topic, err := r.bytes()
	if err != nil {
		return err
	}
	d.Topic = c.internString(topic)
	if d.Value, err = r.float(); err != nil {
		return err
	}
	if d.Valid, err = r.bool(); err != nil {
		return err
	}
	if d.Quality, err = r.float(); err != nil {
		return err
	}
	sampled, err := r.uvarint()
	if err != nil {
		return err
	}
	d.Sampled = sim.Time(sampled)
	return nil
}

func (c *Binary) readCommand(r *reader, cmd *Command) error {
	id, err := r.uvarint()
	if err != nil {
		return err
	}
	cmd.ID = id
	name, err := r.bytes()
	if err != nil {
		return err
	}
	cmd.Name = c.internString(name)
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	cmd.Args = nil
	if n == 0 {
		return nil
	}
	// Each arg is at least 1 (key length) + 8 (value) bytes; reject
	// counts the remaining frame cannot possibly hold before allocating.
	if n > uint64(r.rest())/9 {
		return errTruncated
	}
	cmd.Args = make(map[string]float64, n)
	prev := ""
	for i := uint64(0); i < n; i++ {
		k, err := r.bytes()
		if err != nil {
			return err
		}
		key := c.internString(k)
		// Enforce the encoder's canonical form — strictly ascending
		// keys — so no two byte strings decode to the same command
		// (duplicate keys would silently overwrite each other).
		if i > 0 && key <= prev {
			return fmt.Errorf("args out of canonical order (%q after %q)", key, prev)
		}
		prev = key
		v, err := r.float()
		if err != nil {
			return err
		}
		cmd.Args[key] = v
	}
	return nil
}

func (c *Binary) readAck(r *reader, a *CommandAck) error {
	id, err := r.uvarint()
	if err != nil {
		return err
	}
	a.ID = id
	if a.OK, err = r.bool(); err != nil {
		return err
	}
	errStr, err := r.bytes()
	if err != nil {
		return err
	}
	a.Err = c.internString(errStr)
	return nil
}

func readAdmit(r *reader, a *AdmitResult) error {
	ok, err := r.bool()
	if err != nil {
		return err
	}
	a.OK = ok
	reason, err := r.bytes()
	if err != nil {
		return err
	}
	a.Reason = string(reason)
	return nil
}

func (c *Binary) readDescriptor(r *reader, d *Descriptor) error {
	read := func(dst *string) error {
		b, err := r.bytes()
		if err != nil {
			return err
		}
		*dst = string(b)
		return nil
	}
	if err := read(&d.ID); err != nil {
		return err
	}
	var kind string
	if err := read(&kind); err != nil {
		return err
	}
	d.Kind = DeviceKind(kind)
	if err := read(&d.Manufacturer); err != nil {
		return err
	}
	if err := read(&d.Model); err != nil {
		return err
	}
	if err := read(&d.Version); err != nil {
		return err
	}
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	d.Capabilities = nil
	if n == 0 {
		return nil
	}
	// Each capability is at least 4 bytes (two lengths, class, criticality).
	if n > uint64(r.rest())/4 {
		return errTruncated
	}
	d.Capabilities = make([]Capability, 0, n)
	for i := uint64(0); i < n; i++ {
		var cb Capability
		if err := read(&cb.Name); err != nil {
			return err
		}
		code, err := r.byte()
		if err != nil {
			return err
		}
		if int(code) >= len(classNames) || classNames[code] == "" {
			return fmt.Errorf("unknown capability class code 0x%02x", code)
		}
		cb.Class = classNames[code]
		if err := read(&cb.Unit); err != nil {
			return err
		}
		crit, err := r.uvarint()
		if err != nil {
			return err
		}
		if crit > math.MaxInt32 {
			return fmt.Errorf("criticality %d out of range", crit)
		}
		cb.Criticality = int(crit)
		d.Capabilities = append(d.Capabilities, cb)
	}
	return nil
}

// splitAuth locates the auth field of an encoded frame, returning the
// signing window (everything before the auth length prefix) and the tag.
func splitAuth(frame []byte) (signing, auth []byte, err error) {
	if len(frame) < 2 {
		return nil, nil, errTruncated
	}
	if frame[0] != Version1 {
		return nil, nil, fmt.Errorf("icewire: unsupported frame version 0x%02x", frame[0])
	}
	r := reader{data: frame, off: 2}
	if _, err := r.uvarint(); err != nil { // seq
		return nil, nil, err
	}
	if _, err := r.uvarint(); err != nil { // at
		return nil, nil, err
	}
	for i := 0; i < 3; i++ { // from, to, body
		if _, err := r.bytes(); err != nil {
			return nil, nil, err
		}
	}
	signingEnd := r.off
	auth, err = r.bytes()
	if err != nil {
		return nil, nil, err
	}
	if r.rest() != 0 {
		return nil, nil, fmt.Errorf("icewire: %d trailing bytes after frame", r.rest())
	}
	return frame[:signingEnd], auth, nil
}

// Signing returns the canonical signing bytes of an unsigned frame: a
// subslice of the frame itself, valid only until frame is reused.
func (c *Binary) Signing(frame []byte) ([]byte, error) {
	signing, _, err := splitAuth(frame)
	return signing, err
}

// PatchAuth attaches an authentication tag to an unsigned encoded frame
// without re-encoding the envelope, returning the (possibly
// reallocated) frame: the auth field is the frame's final field, so the
// tag replaces the empty auth suffix in place.
func (c *Binary) PatchAuth(frame, tag []byte) ([]byte, error) {
	signing, auth, err := splitAuth(frame)
	if err != nil {
		return frame, err
	}
	if len(auth) != 0 {
		return frame, errors.New("icewire: frame already authenticated")
	}
	if len(tag) == 0 {
		return frame, nil
	}
	frame = binary.AppendUvarint(frame[:len(signing)], uint64(len(tag)))
	return append(frame, tag...), nil
}
