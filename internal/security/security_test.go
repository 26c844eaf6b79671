package security

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/mednet"
	"repro/internal/sim"
)

func TestHMACSignVerifyRoundTrip(t *testing.T) {
	ks := NewKeyStore()
	ks.Issue("pump1", sim.NewRNG(1))
	auth := NewHMACAuth(ks)
	msg := []byte("stop the pump")
	tag, err := auth.Sign("pump1", msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := auth.Verify("pump1", msg, tag); err != nil {
		t.Fatal(err)
	}
}

func TestHMACRejectsTamperAndForgery(t *testing.T) {
	ks := NewKeyStore()
	ks.Issue("pump1", sim.NewRNG(1))
	ks.Issue("mallory", sim.NewRNG(2))
	auth := NewHMACAuth(ks)
	msg := []byte("stop the pump")
	tag, _ := auth.Sign("pump1", msg)

	if err := auth.Verify("pump1", []byte("STOP THE PUMP"), tag); err == nil {
		t.Fatal("tampered message accepted")
	}
	if err := auth.Verify("pump1", msg, nil); err == nil {
		t.Fatal("missing tag accepted")
	}
	// Mallory signs with her key but claims to be pump1.
	forged, _ := auth.Sign("mallory", msg)
	if err := auth.Verify("pump1", msg, forged); err == nil {
		t.Fatal("cross-key forgery accepted")
	}
	if _, err := auth.Sign("ghost", msg); err == nil {
		t.Fatal("signing for unknown principal succeeded")
	}
}

// Property: for random messages, only the exact (message, sender) pair
// verifies.
func TestHMACTamperDetectionProperty(t *testing.T) {
	ks := NewKeyStore()
	ks.Issue("a", sim.NewRNG(1))
	auth := NewHMACAuth(ks)
	f := func(msg []byte, flip uint16) bool {
		if len(msg) == 0 {
			return true
		}
		tag, err := auth.Sign("a", msg)
		if err != nil {
			return false
		}
		if auth.Verify("a", msg, tag) != nil {
			return false
		}
		mutated := append([]byte(nil), msg...)
		mutated[int(flip)%len(mutated)] ^= 0xA5
		return auth.Verify("a", mutated, tag) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyRevocation(t *testing.T) {
	ks := NewKeyStore()
	ks.Issue("d", sim.NewRNG(3))
	auth := NewHMACAuth(ks)
	msg := []byte("hello")
	tag, _ := auth.Sign("d", msg)
	ks.Revoke("d")
	if err := auth.Verify("d", msg, tag); err == nil {
		t.Fatal("revoked principal still verifies")
	}
}

func TestACL(t *testing.T) {
	acl := ClinicalDefaultACL()
	acl.Assign("pca-supervisor", "supervisor")
	acl.Assign("dashboard", "monitor-app")

	if ok, _ := acl.Authorize("pca-supervisor", ActCommand, "infusion-pump"); !ok {
		t.Fatal("supervisor denied command")
	}
	if ok, reason := acl.Authorize("dashboard", ActCommand, "infusion-pump"); ok || reason == "" {
		t.Fatal("monitor app allowed to command a pump")
	}
	if ok, _ := acl.Authorize("dashboard", ActReadData, "pulse-oximeter"); !ok {
		t.Fatal("monitor app denied read")
	}
	if ok, _ := acl.Authorize("stranger", ActReadData, "pulse-oximeter"); ok {
		t.Fatal("unassigned principal authorized")
	}
}

func TestAuditChain(t *testing.T) {
	log := NewAuditLog()
	log.Append(0, "supervisor", "command", "pump1.stop")
	log.Append(sim.Second, "supervisor", "command", "pump1.resume")
	log.Append(2*sim.Second, "nurse", "configure", "pump1.set-basal rate=1")
	if idx := log.VerifyChain(); idx != -1 {
		t.Fatalf("fresh chain corrupt at %d", idx)
	}
	if err := log.Tamper(1, "pump1.bolus 100mg"); err != nil {
		t.Fatal(err)
	}
	if idx := log.VerifyChain(); idx != 1 {
		t.Fatalf("tampering not detected at entry 1 (got %d)", idx)
	}
	if err := log.Tamper(99, "x"); err == nil {
		t.Fatal("out-of-range tamper accepted")
	}
	if got := len(log.Entries()); got != 3 {
		t.Fatalf("entries = %d", got)
	}
	if got := log.ByPrincipal(); len(got) != 2 {
		t.Fatalf("ByPrincipal = %v", got)
	}
}

// End-to-end over the ICE: with HMAC enabled, an attacker without a key
// cannot inject a stop command; the manager rejects it and the pump never
// sees it.
func TestICEAuthenticationBlocksInjection(t *testing.T) {
	k := sim.NewKernel()
	net := mednet.MustNew(k, sim.NewRNG(1), mednet.DefaultLink())
	ks := NewKeyStore()
	rng := sim.NewRNG(9)
	ks.Issue("ice-manager", rng)
	ks.Issue("ox1", rng)
	auth := NewHMACAuth(ks)

	cfg := core.DefaultManagerConfig()
	cfg.Auth = auth
	mgr := core.MustNewManager(k, net, cfg)

	received := 0
	mgr.Subscribe("*/*", func(string, core.Datum) { received++ })

	k.At(0, func() {
		// Legitimate device with a key.
		c := core.MustConnect(k, net, core.Descriptor{
			ID: "ox1", Kind: core.KindPulseOximeter,
			Capabilities: []core.Capability{{Name: "spo2", Class: core.ClassSensor, Criticality: 3}},
		}, core.ConnectConfig{Auth: auth})
		k.After(100*time.Millisecond, func() {
			c.Publish("spo2", 97, true, 1, k.Now())
		})
		// Attacker: well-formed but unsigned publish claiming to be ox1,
		// framed with the wire's own (binary) codec.
		k.After(200*time.Millisecond, func() {
			data, err := core.NewBinaryCodec().AppendEnvelope(nil, core.MsgPublish, "ox1", mgr.Addr(), 1000, k.Now(), &core.Datum{
				Topic: "ox1/spo2", Value: 10, Valid: true,
			})
			if err != nil {
				t.Error(err)
				return
			}
			net.Send("attacker", mgr.Addr(), "publish", data)
		})
	})
	if err := k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if received != 1 {
		t.Fatalf("received %d publications, want 1 (forgery rejected)", received)
	}
	if mgr.AuthRejected != 1 {
		t.Fatalf("AuthRejected = %d, want 1", mgr.AuthRejected)
	}
}

// Without authentication, the same injection succeeds — the vulnerable
// baseline of E9.
func TestICEWithoutAuthIsVulnerable(t *testing.T) {
	k := sim.NewKernel()
	net := mednet.MustNew(k, sim.NewRNG(1), mednet.DefaultLink())
	mgr := core.MustNewManager(k, net, core.DefaultManagerConfig())
	received := 0
	mgr.Subscribe("*/*", func(string, core.Datum) { received++ })
	k.At(0, func() {
		core.MustConnect(k, net, core.Descriptor{
			ID: "ox1", Kind: core.KindPulseOximeter,
			Capabilities: []core.Capability{{Name: "spo2", Class: core.ClassSensor, Criticality: 3}},
		}, core.ConnectConfig{})
		k.After(200*time.Millisecond, func() {
			data, _ := core.NewBinaryCodec().AppendEnvelope(nil, core.MsgPublish, "ox1", mgr.Addr(), 1000, k.Now(), &core.Datum{
				Topic: "ox1/spo2", Value: 10, Valid: true,
			})
			net.Send("attacker", mgr.Addr(), "publish", data)
		})
	})
	if err := k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if received != 1 {
		t.Fatalf("spoofed datum not delivered on unauthenticated ICE (received=%d)", received)
	}
}

// signedBinaryPublish crafts a correctly signed binary publish frame
// from ox1: encode once, sign the frame's own signing window, patch the
// tag in — exactly the conns' send path.
func signedBinaryPublish(t *testing.T, auth *HMACAuth, to string, seq uint64, at sim.Time) []byte {
	t.Helper()
	wire := core.NewBinaryCodec()
	frame, err := wire.AppendEnvelope(nil, core.MsgPublish, "ox1", to, seq, at, &core.Datum{
		Topic: "ox1/spo2", Value: 95, Valid: true, Quality: 1, Sampled: at,
	})
	if err != nil {
		t.Fatal(err)
	}
	sig, err := wire.Signing(frame)
	if err != nil {
		t.Fatal(err)
	}
	tag, err := auth.Sign("ox1", sig)
	if err != nil {
		t.Fatal(err)
	}
	frame, err = wire.PatchAuth(frame, tag)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// Binary-frame regression battery: a correctly signed frame passes HMAC
// verification; tampered payloads, tampered tags, truncated frames,
// replayed frames and tags over the wrong byte string are all rejected,
// each on the right counter.
func TestBinaryFrameTamperTruncateReplay(t *testing.T) {
	k := sim.NewKernel()
	net := mednet.MustNew(k, sim.NewRNG(1), mednet.DefaultLink())
	ks := NewKeyStore()
	rng := sim.NewRNG(9)
	ks.Issue("ice-manager", rng)
	ks.Issue("ox1", rng)
	auth := NewHMACAuth(ks)

	cfg := core.DefaultManagerConfig()
	cfg.Auth = auth
	mgr := core.MustNewManager(k, net, cfg)
	received := 0
	mgr.Subscribe("*/*", func(string, core.Datum) { received++ })

	// A real ox1 joins (signed announce) so publishes are dispatched.
	core.MustConnect(k, net, core.Descriptor{
		ID: "ox1", Kind: core.KindPulseOximeter,
		Capabilities: []core.Capability{{Name: "spo2", Class: core.ClassSensor, Criticality: 3}},
	}, core.ConnectConfig{Auth: auth})
	if err := k.Run(300 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}

	deliver := func(frame []byte) {
		net.Send("x", mgr.Addr(), "publish", frame)
		if err := k.Run(k.Now() + 50*sim.Millisecond); err != nil {
			t.Fatal(err)
		}
	}

	// 1. The genuine signed frame verifies and is delivered.
	frame := signedBinaryPublish(t, auth, mgr.Addr(), 5000, k.Now())
	deliver(frame)
	if received != 1 {
		t.Fatalf("signed frame not delivered (received=%d)", received)
	}
	if mgr.AuthRejected != 0 || mgr.Malformed != 0 {
		t.Fatalf("genuine frame bumped counters: auth=%d malformed=%d", mgr.AuthRejected, mgr.Malformed)
	}

	// 2. Replaying the identical frame is rejected by the replay window.
	deliver(frame)
	if received != 1 || mgr.ReplayRejected != 1 {
		t.Fatalf("replay not rejected (received=%d, replay=%d)", received, mgr.ReplayRejected)
	}

	// 3. A tampered tag fails verification.
	badTag := signedBinaryPublish(t, auth, mgr.Addr(), 5001, k.Now())
	badTag[len(badTag)-1] ^= 0xFF
	deliver(badTag)
	if received != 1 || mgr.AuthRejected != 1 {
		t.Fatalf("tampered tag not rejected (received=%d, auth=%d)", received, mgr.AuthRejected)
	}

	// 4. A tampered payload (the datum's value bytes, mid-frame) breaks
	// the signature even though the frame still parses.
	badBody := signedBinaryPublish(t, auth, mgr.Addr(), 5002, k.Now())
	badBody[len(badBody)/2] ^= 0x01
	deliver(badBody)
	if received != 1 {
		t.Fatalf("tampered payload delivered (received=%d)", received)
	}
	if mgr.AuthRejected+mgr.Malformed != 2 {
		t.Fatalf("tampered payload not counted (auth=%d malformed=%d)", mgr.AuthRejected, mgr.Malformed)
	}

	// 5. Truncated frames never parse, let alone verify.
	trunc := signedBinaryPublish(t, auth, mgr.Addr(), 5003, k.Now())
	for _, n := range []int{1, 7, len(trunc) / 2, len(trunc) - 3} {
		deliver(trunc[:n])
	}
	if received != 1 {
		t.Fatalf("truncated frame delivered (received=%d)", received)
	}

	// 6. A tag computed over the whole unsigned frame, rather than its
	// signing window (which stops before the auth field), fails
	// verification: only the canonical signing form is accepted.
	wire := core.NewBinaryCodec()
	unsigned, err := wire.AppendEnvelope(nil, core.MsgPublish, "ox1", mgr.Addr(), 5004, k.Now(), &core.Datum{
		Topic: "ox1/spo2", Value: 50, Valid: true, Quality: 1, Sampled: k.Now(),
	})
	if err != nil {
		t.Fatal(err)
	}
	wholeTag, err := auth.Sign("ox1", unsigned)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := wire.PatchAuth(unsigned, wholeTag)
	if err != nil {
		t.Fatal(err)
	}
	authBefore := mgr.AuthRejected
	deliver(whole)
	if received != 1 || mgr.AuthRejected != authBefore+1 {
		t.Fatalf("whole-frame tag not rejected (received=%d, auth=%d, want %d)", received, mgr.AuthRejected, authBefore+1)
	}
}
