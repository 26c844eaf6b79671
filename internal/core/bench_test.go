package core

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkPublishPath times one frame through the ICE bus on the
// admitted allocRig: device send (topic resolve, encode into a pooled
// buffer), mednet delivery, manager decode, device lookup and, for a
// publish, topic split and subscriber dispatch against the three
// subscriptions a PCA cell holds. One op is one frame plus the kernel
// run that delivers it, so ns/op is the cost per frame.
func BenchmarkPublishPath(b *testing.B) {
	b.Run("publish", func(b *testing.B) {
		r := newAllocRig(b)
		delivered := 0
		count := func(string, Datum) { delivered++ }
		r.mgr.Subscribe("dev1/spo2", count)
		r.mgr.Subscribe("dev1/heart-rate", count)
		r.mgr.Subscribe("pump1/*", count)
		benchFrames(b, r, func() { r.conn.Publish("spo2", 97.5, true, 1, r.k.Now()) })
		if delivered < b.N {
			b.Fatalf("only %d of %d publications delivered", delivered, b.N)
		}
	})
	b.Run("heartbeat", func(b *testing.B) {
		r := newAllocRig(b)
		benchFrames(b, r, func() { r.conn.sendEnvelope(MsgHeartbeat, nil) })
		if st, _ := r.mgr.Device("dev1"); !st.Alive {
			b.Fatal("heartbeats did not keep the device alive")
		}
	})
}

// benchFrames runs send once per op, delivering each frame before the
// next.
func benchFrames(b *testing.B, r *allocRig, send func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
		if err := r.k.Run(r.k.Now() + 10*sim.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}
