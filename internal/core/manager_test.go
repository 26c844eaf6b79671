package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/mednet"
	"repro/internal/sim"
)

// rig is a complete ICE test fixture.
type rig struct {
	k   *sim.Kernel
	net *mednet.Network
	mgr *Manager
}

func newRig(t *testing.T, cfg ManagerConfig) *rig {
	t.Helper()
	k := sim.NewKernel()
	net := mednet.MustNew(k, sim.NewRNG(1), mednet.DefaultLink())
	mgr, err := NewManager(k, net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, net: net, mgr: mgr}
}

func TestManagerConfigValidation(t *testing.T) {
	k := sim.NewKernel()
	net := mednet.MustNew(k, sim.NewRNG(1), mednet.DefaultLink())
	bad := []ManagerConfig{
		{HeartbeatInterval: 0, LivenessTimeout: time.Second},
		{HeartbeatInterval: time.Second, LivenessTimeout: 0},
		{HeartbeatInterval: 2 * time.Second, LivenessTimeout: time.Second},
	}
	for i, cfg := range bad {
		if _, err := NewManager(k, net, cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

func TestAnnounceAdmitPublishSubscribe(t *testing.T) {
	r := newRig(t, DefaultManagerConfig())
	var data []Datum
	r.mgr.Subscribe("ox1/spo2", func(from string, d Datum) {
		if from != "ox1" {
			t.Errorf("from = %q", from)
		}
		data = append(data, d)
	})

	var admitted bool
	r.k.At(0, func() {
		c := MustConnect(r.k, r.net, oximeterDesc("ox1"), ConnectConfig{})
		c.OnAdmit(func(ok bool, reason string) { admitted = ok })
		r.k.After(100*time.Millisecond, func() {
			c.Publish("spo2", 97.5, true, 0.9, r.k.Now())
			c.Publish("heart-rate", 72, true, 0.9, r.k.Now()) // not subscribed
		})
	})
	if err := r.k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if !admitted {
		t.Fatal("device not admitted")
	}
	if len(data) != 1 {
		t.Fatalf("received %d data, want 1", len(data))
	}
	if data[0].Value != 97.5 || !data[0].Valid {
		t.Fatalf("datum = %+v", data[0])
	}
	st, ok := r.mgr.Device("ox1")
	if !ok || !st.Admitted || !st.Alive {
		t.Fatalf("status = %+v, %v", st, ok)
	}
}

func TestAdmissionPolicyRejects(t *testing.T) {
	cfg := DefaultManagerConfig()
	cfg.Admission = RequireAny(Requirement{Kind: KindInfusionPump})
	r := newRig(t, cfg)
	var ok bool
	var reason string
	r.k.At(0, func() {
		c := MustConnect(r.k, r.net, oximeterDesc("ox1"), ConnectConfig{})
		c.OnAdmit(func(o bool, re string) { ok, reason = o, re })
	})
	if err := r.k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("oximeter admitted by pump-only policy")
	}
	if reason == "" {
		t.Fatal("rejection carried no reason")
	}
	if _, found := r.mgr.Device("ox1"); found {
		t.Fatal("rejected device present in registry")
	}
}

func TestWildcardSubscription(t *testing.T) {
	r := newRig(t, DefaultManagerConfig())
	topics := map[string]int{}
	r.mgr.Subscribe("*/*", func(_ string, d Datum) { topics[d.Topic]++ })
	r.k.At(0, func() {
		ox := MustConnect(r.k, r.net, oximeterDesc("ox1"), ConnectConfig{})
		pu := MustConnect(r.k, r.net, pumpDesc("pump1"), ConnectConfig{})
		r.k.After(50*time.Millisecond, func() {
			ox.Publish("spo2", 98, true, 1, r.k.Now())
			pu.Publish("infusion-rate", 0.05, true, 1, r.k.Now())
		})
	})
	if err := r.k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if topics["ox1/spo2"] != 1 || topics["pump1/infusion-rate"] != 1 {
		t.Fatalf("topics = %v", topics)
	}
}

func TestCommandRoundTrip(t *testing.T) {
	r := newRig(t, DefaultManagerConfig())
	stopped := false
	var ackOK bool
	var ackErr error
	r.k.At(0, func() {
		p := MustConnect(r.k, r.net, pumpDesc("pump1"), ConnectConfig{})
		p.Handle("stop", func(map[string]float64) error { stopped = true; return nil })
		r.k.After(50*time.Millisecond, func() {
			r.mgr.SendCommand("pump1", "stop", nil, time.Second, func(a CommandAck, err error) {
				ackOK, ackErr = a.OK, err
			})
		})
	})
	if err := r.k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if !stopped {
		t.Fatal("command did not execute")
	}
	if !ackOK || ackErr != nil {
		t.Fatalf("ack = %v, err = %v", ackOK, ackErr)
	}
}

func TestCommandErrorPropagates(t *testing.T) {
	r := newRig(t, DefaultManagerConfig())
	var ack CommandAck
	r.k.At(0, func() {
		p := MustConnect(r.k, r.net, pumpDesc("pump1"), ConnectConfig{})
		p.Handle("stop", func(map[string]float64) error { return errors.New("valve jammed") })
		r.k.After(50*time.Millisecond, func() {
			r.mgr.SendCommand("pump1", "stop", nil, time.Second, func(a CommandAck, err error) { ack = a })
		})
	})
	if err := r.k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if ack.OK || ack.Err != "valve jammed" {
		t.Fatalf("ack = %+v", ack)
	}
}

func TestUnknownCommandNacked(t *testing.T) {
	r := newRig(t, DefaultManagerConfig())
	var ack CommandAck
	r.k.At(0, func() {
		MustConnect(r.k, r.net, pumpDesc("pump1"), ConnectConfig{})
		r.k.After(50*time.Millisecond, func() {
			r.mgr.SendCommand("pump1", "self-destruct", nil, time.Second, func(a CommandAck, err error) { ack = a })
		})
	})
	if err := r.k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if ack.OK {
		t.Fatal("unknown command acked OK")
	}
}

func TestCommandTimeoutOnDeadDevice(t *testing.T) {
	r := newRig(t, DefaultManagerConfig())
	var timedOut bool
	r.k.At(0, func() {
		p := MustConnect(r.k, r.net, pumpDesc("pump1"), ConnectConfig{})
		r.k.After(50*time.Millisecond, func() {
			p.Crash()
			r.mgr.SendCommand("pump1", "stop", nil, 500*time.Millisecond, func(a CommandAck, err error) {
				timedOut = err != nil
			})
		})
	})
	if err := r.k.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !timedOut {
		t.Fatal("command to crashed device did not time out")
	}
}

func TestLivenessDetectsCrash(t *testing.T) {
	r := newRig(t, DefaultManagerConfig())
	transitions := map[bool]int{}
	var lastAlive bool
	r.mgr.WatchDevices(func(id string, st DeviceStatus) {
		if id == "ox1" {
			transitions[st.Alive]++
			lastAlive = st.Alive
		}
	})
	r.k.At(0, func() {
		c := MustConnect(r.k, r.net, oximeterDesc("ox1"), ConnectConfig{})
		r.k.After(2*time.Second, func() { c.Crash() })
	})
	if err := r.k.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if transitions[true] == 0 {
		t.Fatal("no admission notification")
	}
	if transitions[false] == 0 {
		t.Fatal("crash never detected by liveness sweep")
	}
	if lastAlive {
		t.Fatal("device still considered alive at end")
	}
	st, _ := r.mgr.Device("ox1")
	if st.Alive {
		t.Fatal("status.Alive = true after crash")
	}
}

func TestLivenessRecovery(t *testing.T) {
	r := newRig(t, DefaultManagerConfig())
	var events []bool
	r.mgr.WatchDevices(func(id string, st DeviceStatus) { events = append(events, st.Alive) })
	r.k.At(0, func() {
		c := MustConnect(r.k, r.net, oximeterDesc("ox1"), ConnectConfig{})
		r.k.After(2*time.Second, func() { c.Crash() })
		// Reconnect (device restart) at t=8s with a fresh connection.
		r.k.After(8*time.Second, func() {
			MustConnect(r.k, r.net, oximeterDesc("ox1"), ConnectConfig{})
		})
	})
	if err := r.k.Run(15 * sim.Second); err != nil {
		t.Fatal(err)
	}
	// Expect alive -> dead -> alive somewhere in the sequence.
	wantSeq := []bool{true, false, true}
	i := 0
	for _, e := range events {
		if i < len(wantSeq) && e == wantSeq[i] {
			i++
		}
	}
	if i != len(wantSeq) {
		t.Fatalf("liveness transitions = %v, want to contain %v in order", events, wantSeq)
	}
}

func TestByeRemovesDevice(t *testing.T) {
	r := newRig(t, DefaultManagerConfig())
	r.k.At(0, func() {
		c := MustConnect(r.k, r.net, oximeterDesc("ox1"), ConnectConfig{})
		r.k.After(time.Second, func() { c.Bye() })
	})
	if err := r.k.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.mgr.Device("ox1"); ok {
		t.Fatal("device still registered after Bye")
	}
	if got := r.mgr.Devices(); len(got) != 0 {
		t.Fatalf("devices = %v", got)
	}
}

func TestPublishUnderForeignPrefixRejected(t *testing.T) {
	r := newRig(t, DefaultManagerConfig())
	var received int
	r.mgr.Subscribe("*/*", func(string, Datum) { received++ })
	r.k.At(0, func() {
		// A malicious or buggy device publishing under another device's ID.
		c := MustConnect(r.k, r.net, oximeterDesc("evil"), ConnectConfig{})
		r.k.After(100*time.Millisecond, func() {
			// Hand-craft a publish claiming pump1's topic, framed with
			// the manager's own (binary) codec so the frame decodes and
			// the topic-prefix enforcement itself is what rejects it.
			data, err := NewBinaryCodec().AppendEnvelope(nil, MsgPublish, "evil", r.mgr.Addr(), 99, r.k.Now(), &Datum{
				Topic: "pump1/infusion-rate", Value: 0, Valid: true,
			})
			if err != nil {
				t.Error(err)
				return
			}
			r.net.Send("evil", r.mgr.Addr(), "publish", data)
			_ = c
		})
	})
	if err := r.k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if received != 0 {
		t.Fatal("spoofed-topic publish was routed")
	}
	if r.mgr.Malformed == 0 {
		t.Fatal("spoofed publish not counted as malformed")
	}
}

func TestDuplicatedFramesDeduplicated(t *testing.T) {
	k := sim.NewKernel()
	net := mednet.MustNew(k, sim.NewRNG(1), mednet.LinkParams{
		Latency: 2 * time.Millisecond, DupProb: 1, // every frame duplicated
	})
	mgr := MustNewManager(k, net, DefaultManagerConfig())
	var data int
	mgr.Subscribe("*/*", func(string, Datum) { data++ })
	k.At(0, func() {
		c := MustConnect(k, net, oximeterDesc("ox1"), ConnectConfig{})
		k.After(100*time.Millisecond, func() {
			c.Publish("spo2", 97, true, 1, k.Now())
		})
	})
	if err := k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if data != 1 {
		t.Fatalf("received %d copies, want 1 (anti-replay dedup)", data)
	}
	if mgr.ReplayRejected == 0 {
		t.Fatal("duplicate not counted")
	}
}

func TestMalformedPayloadCounted(t *testing.T) {
	r := newRig(t, DefaultManagerConfig())
	r.k.At(0, func() {
		r.net.Send("x", r.mgr.Addr(), "junk", []byte("{not json"))
	})
	if err := r.k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
	if r.mgr.Malformed != 1 {
		t.Fatalf("malformed = %d, want 1", r.mgr.Malformed)
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	codec := NewBinaryCodec()
	data, err := codec.AppendEnvelope(nil, MsgPublish, "d1", "mgr", 7, 123*sim.Millisecond, Datum{
		Topic: "d1/spo2", Value: 96.5, Valid: true, Quality: 0.8, Sampled: 120 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	env, err := codec.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != MsgPublish || env.From != "d1" || env.Seq != 7 {
		t.Fatalf("envelope = %+v", env)
	}
	var d Datum
	if err := env.DecodeBody(&d); err != nil {
		t.Fatal(err)
	}
	if d.Value != 96.5 || d.Topic != "d1/spo2" {
		t.Fatalf("datum = %+v", d)
	}
	// Signing bytes must not depend on the Auth field.
	sig1 := env.SigningBytes()
	env.Auth = []byte("tag")
	sig2 := env.SigningBytes()
	if string(sig1) != string(sig2) {
		t.Fatal("SigningBytes varies with Auth field")
	}
}

// Publishing an actuator, a setting or an undeclared capability panics
// with the same message whichever way the capability fails; sensors and
// events publish.
func TestPublishUnadvertisedCapabilityPanics(t *testing.T) {
	r := newRig(t, DefaultManagerConfig())
	desc := Descriptor{
		ID: "dev1", Kind: KindInfusionPump,
		Capabilities: []Capability{
			{Name: "rate", Class: ClassSensor, Criticality: 3},
			{Name: "occlusion", Class: ClassEvent, Criticality: 3},
			{Name: "stop", Class: ClassActuator, Criticality: 3},
			{Name: "limit", Class: ClassSetting, Criticality: 3},
		},
	}
	c := MustConnect(r.k, r.net, desc, ConnectConfig{})
	publish := func(capability string) (recovered any) {
		defer func() { recovered = recover() }()
		c.Publish(capability, 1, true, 1, r.k.Now())
		return nil
	}
	for _, ok := range []string{"rate", "occlusion"} {
		if got := publish(ok); got != nil {
			t.Errorf("publishing %s panicked: %v", ok, got)
		}
	}
	for _, bad := range []string{"stop", "limit", "etco2"} {
		want := fmt.Sprintf("core: device dev1 publishing unadvertised capability %q", bad)
		if got := publish(bad); got != want {
			t.Errorf("publishing %s: panic %v, want %q", bad, got, want)
		}
	}
}

func TestHandleUnadvertisedCommandPanics(t *testing.T) {
	r := newRig(t, DefaultManagerConfig())
	r.k.At(0, func() {
		c := MustConnect(r.k, r.net, oximeterDesc("ox1"), ConnectConfig{})
		defer func() {
			if recover() == nil {
				t.Error("handling unadvertised command did not panic")
			}
		}()
		c.Handle("stop", func(map[string]float64) error { return nil })
	})
	if err := r.k.Run(sim.Second); err != nil {
		t.Fatal(err)
	}
}

// Devices that go stale in the same sweep reach the watchers in
// admission order, and Devices lists them in that order too — in every
// rig, not by the luck of map iteration.
func TestStaleNotificationsInAdmissionOrder(t *testing.T) {
	ids := []string{"ox-b", "ox-c", "ox-a"}
	for rigN := 0; rigN < 50; rigN++ {
		r := newRig(t, DefaultManagerConfig())
		var admitted, stale []string
		r.mgr.WatchDevices(func(id string, st DeviceStatus) {
			if st.Alive {
				admitted = append(admitted, id)
			} else {
				stale = append(stale, id)
			}
		})
		for i, id := range ids {
			r.k.At(sim.Time(i)*10*sim.Millisecond, func() {
				c := MustConnect(r.k, r.net, oximeterDesc(id), ConnectConfig{})
				r.k.At(1500*sim.Millisecond, c.Crash) // all three fall silent together
			})
		}
		if err := r.k.Run(10 * sim.Second); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(admitted, ids) {
			t.Fatalf("rig %d: admissions %v, want %v", rigN, admitted, ids)
		}
		if !slices.Equal(stale, ids) {
			t.Fatalf("rig %d: stale notifications %v, want admission order %v", rigN, stale, ids)
		}
		if got := r.mgr.Devices(); !slices.Equal(got, ids) {
			t.Fatalf("rig %d: Devices() = %v, want admission order %v", rigN, got, ids)
		}
	}
}

// A device that restarts and re-announces keeps its registry slot, and
// liveness tracks the restarted connection: its later crash is noticed
// one liveness timeout after its last heartbeat, and nothing goes stale
// in between.
func TestReannounceKeepsSlotAndLiveness(t *testing.T) {
	r := newRig(t, DefaultManagerConfig())
	var events []string
	r.mgr.WatchDevices(func(id string, st DeviceStatus) {
		events = append(events, fmt.Sprintf("%s alive=%v", id, st.Alive))
		if !st.Alive && (id != "a" || r.k.Now() < 11*sim.Second) {
			t.Errorf("%s reported stale at %v", id, r.k.Now().Duration())
		}
	})
	r.k.At(0, func() {
		a := MustConnect(r.k, r.net, oximeterDesc("a"), ConnectConfig{})
		r.k.At(1500*sim.Millisecond, a.Crash)
	})
	r.k.At(10*sim.Millisecond, func() { MustConnect(r.k, r.net, oximeterDesc("b"), ConnectConfig{}) })
	r.k.At(2*sim.Second, func() { // restart before the first crash goes stale
		a := MustConnect(r.k, r.net, oximeterDesc("a"), ConnectConfig{})
		r.k.At(8*sim.Second, a.Crash)
	})
	if err := r.k.Run(15 * sim.Second); err != nil {
		t.Fatal(err)
	}
	want := []string{"a alive=true", "b alive=true", "a alive=true", "a alive=false"}
	if !slices.Equal(events, want) {
		t.Fatalf("watcher saw %v, want %v", events, want)
	}
	if got := r.mgr.Devices(); !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("Devices() = %v, want [a b]", got)
	}
	if st, _ := r.mgr.Device("a"); st.Alive {
		t.Fatal("restarted device still alive after its second crash")
	}
}
