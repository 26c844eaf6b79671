// Package mednet simulates the hospital device network the paper's
// interoperability scenarios run over. It delivers opaque datagrams
// between named endpoints with configurable latency, jitter, loss,
// duplication and partitions, all on the shared virtual clock, so the
// closed-loop experiments can quantify exactly how communication faults
// erode patient safety (challenge (l), experiment E6).
package mednet

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/sim"
)

// Message is one datagram in flight.
type Message struct {
	From    string
	To      string
	Kind    string // application-level tag, for tracing
	Payload []byte
	SentAt  sim.Time

	// buf, when non-nil, is the pooled buffer backing Payload; the
	// network returns it to the pool after the receiving handler runs.
	buf *Buf
}

// Buf is a pooled, reference-counted payload buffer. Senders on a hot
// path acquire one, encode into B (typically via an append-style codec),
// and hand it to SendBuf; the network recycles it once every scheduled
// delivery of the datagram has run. This is what lets the wire stack
// publish millions of envelopes with zero steady-state allocations while
// payloads are still carried by reference (never copied) end to end.
type Buf struct {
	B    []byte
	refs int
}

// Handler receives delivered messages. Handlers run inside the simulation
// event loop; they must not block.
type Handler func(Message)

// LinkParams describe one directed link's behaviour.
type LinkParams struct {
	Latency  time.Duration // base one-way latency
	Jitter   time.Duration // uniform ±jitter added to latency
	LossProb float64       // probability a datagram is silently dropped
	DupProb  float64       // probability a datagram is delivered twice
}

// Validate reports an error for unusable parameters.
func (l LinkParams) Validate() error {
	if l.Latency < 0 || l.Jitter < 0 {
		return errors.New("mednet: negative latency or jitter")
	}
	if l.LossProb < 0 || l.LossProb > 1 {
		return errors.New("mednet: loss probability outside [0,1]")
	}
	if l.DupProb < 0 || l.DupProb > 1 {
		return errors.New("mednet: duplication probability outside [0,1]")
	}
	return nil
}

// DefaultLink returns a healthy clinical LAN profile: 2 ms ± 1 ms, no loss.
func DefaultLink() LinkParams {
	return LinkParams{Latency: 2 * time.Millisecond, Jitter: time.Millisecond}
}

// Stats accumulate per-network delivery accounting.
type Stats struct {
	Sent        uint64
	Delivered   uint64
	Dropped     uint64 // by random loss
	Duplicated  uint64
	Partitioned uint64 // dropped because a partition blocked the pair
	NoRoute     uint64 // destination not registered
	Bytes       uint64 // payload bytes offered to the wire (per send)
}

// Network is the simulated fabric. Not safe for concurrent use; the
// simulation is single-threaded by construction. Scale across patients
// comes from the fleet layer instead: each fleet cell owns a private
// Network (plus kernel, manager, and devices), so rooms parallelize
// without any locking here.
type Network struct {
	k        *sim.Kernel
	rng      *sim.RNG
	handlers map[string]Handler
	def      LinkParams
	links    map[[2]string]LinkParams
	faults   []faultWindow
	stats    Stats
	tap      func(Message, string) // optional observer: (msg, disposition)

	// pool recycles in-flight delivery slots so the healthy path — send,
	// latency, handler dispatch — schedules through the kernel's
	// closure-free API with zero allocations and no payload copy (the
	// datagram's byte slice is carried by reference end to end).
	pool []*delivery
	// bufs recycles payload buffers for SendBuf senders.
	bufs []*Buf
}

// delivery is one datagram in flight between Send and its handler.
type delivery struct {
	n   *Network
	msg Message
}

// deliverMsg lands one datagram: package-level so scheduling it through
// AtFunc never allocates a closure. The slot returns to the pool before
// the handler runs, so a handler that immediately sends reuses it.
func deliverMsg(arg any) {
	d := arg.(*delivery)
	n, msg := d.n, d.msg
	d.msg = Message{} // drop the payload reference while pooled
	n.pool = append(n.pool, d)
	h, ok := n.handlers[msg.To]
	if !ok {
		n.stats.NoRoute++
		n.observe(msg, "noroute")
		n.release(msg.buf)
		return
	}
	n.stats.Delivered++
	n.observe(msg, "delivered")
	h(msg)
	n.release(msg.buf)
}

type faultWindow struct {
	from, to   string // "*" matches any endpoint
	start, end sim.Time
	loss       float64 // additional loss during window (1 = total outage)
}

// New creates a network on the given kernel with a default link profile.
func New(k *sim.Kernel, rng *sim.RNG, def LinkParams) (*Network, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	return &Network{
		k:        k,
		rng:      rng,
		handlers: make(map[string]Handler),
		def:      def,
		links:    make(map[[2]string]LinkParams),
	}, nil
}

// MustNew is New for known-good parameters.
func MustNew(k *sim.Kernel, rng *sim.RNG, def LinkParams) *Network {
	n, err := New(k, rng, def)
	if err != nil {
		panic(err)
	}
	return n
}

// Register attaches a handler to an address. Registering an address twice
// replaces the handler (supports device restart).
func (n *Network) Register(addr string, h Handler) {
	if addr == "" || h == nil {
		panic("mednet: empty address or nil handler")
	}
	n.handlers[addr] = h
}

// Unregister detaches an address (device unplugged or crashed).
func (n *Network) Unregister(addr string) { delete(n.handlers, addr) }

// Registered reports whether an address has a live handler.
func (n *Network) Registered(addr string) bool {
	_, ok := n.handlers[addr]
	return ok
}

// SetLink overrides the link profile for the directed pair from->to.
func (n *Network) SetLink(from, to string, p LinkParams) error {
	if err := p.Validate(); err != nil {
		return err
	}
	n.links[[2]string{from, to}] = p
	return nil
}

// SetDefaultLink replaces the default profile for unconfigured pairs.
func (n *Network) SetDefaultLink(p LinkParams) error {
	if err := p.Validate(); err != nil {
		return err
	}
	n.def = p
	return nil
}

// Tap installs an observer invoked for every send with a disposition of
// "delivered", "dropped", "partitioned", "duplicated" or "noroute".
// Used by tests and the audit subsystem.
func (n *Network) Tap(f func(Message, string)) { n.tap = f }

// Stats returns a copy of the accounting counters.
func (n *Network) Stats() Stats { return n.stats }

// linkFor resolves the effective parameters for a directed pair.
func (n *Network) linkFor(from, to string) LinkParams {
	if p, ok := n.links[[2]string{from, to}]; ok {
		return p
	}
	return n.def
}

// extraLoss returns the added fault-window loss for the pair at time t.
func (n *Network) extraLoss(from, to string, t sim.Time) float64 {
	loss := 0.0
	for _, w := range n.faults {
		if t < w.start || t >= w.end {
			continue
		}
		if (w.from == "*" || w.from == from) && (w.to == "*" || w.to == to) {
			if w.loss > loss {
				loss = w.loss
			}
		}
	}
	return loss
}

// Send queues a datagram. Delivery (or loss) is decided now; the handler
// runs after the sampled latency. Sending to an unregistered address is
// counted but otherwise silently ignored, as on a real datagram network.
func (n *Network) Send(from, to, kind string, payload []byte) {
	n.send(Message{From: from, To: to, Kind: kind, Payload: payload, SentAt: n.k.Now()}, nil)
}

// AcquireBuf leases a payload buffer from the network's pool. Fill B
// (append-style, starting from B[:0]) and pass the Buf to SendBuf, which
// takes ownership; acquired buffers not sent are simply garbage.
func (n *Network) AcquireBuf() *Buf {
	if last := len(n.bufs) - 1; last >= 0 {
		b := n.bufs[last]
		n.bufs = n.bufs[:last]
		return b
	}
	return &Buf{B: make([]byte, 0, 256)}
}

// SendBuf is Send for a pooled payload buffer: the datagram's payload is
// b.B, carried by reference to every scheduled delivery, and b returns
// to the pool after the last delivery's handler returns (or immediately
// when the datagram is lost). Receiving handlers must not retain the
// payload past their own return — decode synchronously, as the ICE
// endpoints do.
func (n *Network) SendBuf(from, to, kind string, b *Buf) {
	n.send(Message{From: from, To: to, Kind: kind, Payload: b.B, SentAt: n.k.Now(), buf: b}, b)
}

func (n *Network) send(msg Message, b *Buf) {
	n.stats.Sent++
	n.stats.Bytes += uint64(len(msg.Payload))

	if pl := n.extraLoss(msg.From, msg.To, n.k.Now()); pl > 0 && n.rng.Bernoulli(pl) {
		n.stats.Partitioned++
		n.observe(msg, "partitioned")
		n.discard(b)
		return
	}
	p := n.linkFor(msg.From, msg.To)
	if n.rng.Bernoulli(p.LossProb) {
		n.stats.Dropped++
		n.observe(msg, "dropped")
		n.discard(b)
		return
	}
	if b != nil {
		b.refs = 1
	}
	n.deliverAfter(msg, p)
	if n.rng.Bernoulli(p.DupProb) {
		if b != nil {
			b.refs++
		}
		n.stats.Duplicated++
		n.observe(msg, "duplicated")
		n.deliverAfter(msg, p)
	}
}

// release returns one reference; the buffer is pooled when the last
// scheduled delivery has run.
func (n *Network) release(b *Buf) {
	if b == nil {
		return
	}
	if b.refs--; b.refs <= 0 {
		b.B = b.B[:0]
		n.bufs = append(n.bufs, b)
	}
}

// discard pools a buffer whose datagram was lost before any delivery was
// scheduled.
func (n *Network) discard(b *Buf) {
	if b != nil {
		b.refs = 1
		n.release(b)
	}
}

func (n *Network) deliverAfter(msg Message, p LinkParams) {
	d := p.Latency
	if p.Jitter > 0 {
		d += time.Duration(n.rng.Uniform(-float64(p.Jitter), float64(p.Jitter)))
	}
	if d < 0 {
		d = 0
	}
	var dv *delivery
	if last := len(n.pool) - 1; last >= 0 {
		dv = n.pool[last]
		n.pool = n.pool[:last]
	} else {
		dv = &delivery{n: n}
	}
	dv.msg = msg
	n.k.AfterFunc(d, deliverMsg, dv)
}

func (n *Network) observe(m Message, disposition string) {
	if n.tap != nil {
		n.tap(m, disposition)
	}
}

// String summarizes the stats for logs.
func (s Stats) String() string {
	return fmt.Sprintf("sent=%d delivered=%d dropped=%d dup=%d partitioned=%d noroute=%d",
		s.Sent, s.Delivered, s.Dropped, s.Duplicated, s.Partitioned, s.NoRoute)
}
