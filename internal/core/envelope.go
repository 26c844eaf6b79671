package core

import (
	"repro/internal/icewire"
	"repro/internal/mednet"
	"repro/internal/sim"
)

// The ICE wire types and the binary codec are defined in
// internal/icewire (one source of truth shared with the fuzz
// harnesses); core aliases them so the rest of the tree keeps its
// vocabulary. Every endpoint speaks the one binary codec; a rig passes
// the same *icewire.Binary to its manager and devices via
// ManagerConfig.Codec and ConnectConfig.Codec to share one intern
// table and one set of encode accounting.
type (
	MsgType     = icewire.MsgType
	Envelope    = icewire.Envelope
	Datum       = icewire.Datum
	Command     = icewire.Command
	CommandAck  = icewire.CommandAck
	AdmitResult = icewire.AdmitResult
	CodecStats  = icewire.CodecStats
)

const (
	MsgAnnounce   = icewire.MsgAnnounce
	MsgAdmit      = icewire.MsgAdmit
	MsgPublish    = icewire.MsgPublish
	MsgCommand    = icewire.MsgCommand
	MsgCommandAck = icewire.MsgCommandAck
	MsgHeartbeat  = icewire.MsgHeartbeat
	MsgBye        = icewire.MsgBye
)

// NewBinaryCodec returns a fresh binary codec instance.
func NewBinaryCodec() *icewire.Binary { return icewire.NewBinary() }

// sendFrame is the one signed-send sequence both endpoints (Manager and
// DeviceConn) share: encode the envelope once into a pooled network
// buffer and, when an authenticator is configured, sign the encoded
// frame's canonical bytes (a subslice of the frame) and patch the tag in
// — never re-serialize. A frame that cannot be signed (no key
// provisioned) goes out unsigned; the receiver's Verify is the
// enforcement point.
func sendFrame(net *mednet.Network, codec *icewire.Binary, auth Authenticator,
	t MsgType, from, to string, seq uint64, at sim.Time, body any) {
	buf := net.AcquireBuf()
	frame, err := codec.AppendEnvelope(buf.B[:0], t, from, to, seq, at, body)
	if err != nil {
		panic(err) // endpoint bodies are all encodable wire structs
	}
	if auth != nil {
		if s, err := codec.Signing(frame); err == nil {
			if tag, err := auth.Sign(from, s); err == nil {
				if patched, err := codec.PatchAuth(frame, tag); err == nil {
					frame = patched
				}
			}
		}
	}
	buf.B = frame
	net.SendBuf(from, to, string(t), buf)
}

// verifyEnvelope checks a decoded envelope's tag against its canonical
// signing bytes — the zero-copy signing window Decode set. A nil
// authenticator accepts everything.
func verifyEnvelope(auth Authenticator, env *Envelope) error {
	if auth == nil {
		return nil
	}
	return auth.Verify(env.From, env.SigningBytes(), env.Auth)
}
