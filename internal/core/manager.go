package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/icewire"
	"repro/internal/mednet"
	"repro/internal/sim"
)

// Authenticator is the hook internal/security plugs into. Implementations
// must be symmetric: Sign produces the tag Verify checks.
type Authenticator interface {
	// Sign returns the authentication tag for the envelope's SigningBytes.
	Sign(sender string, signing []byte) ([]byte, error)
	// Verify checks the tag; a non-nil error rejects the message.
	Verify(sender string, signing, tag []byte) error
}

// AdmissionPolicy decides whether an announcing device may join the ICE.
type AdmissionPolicy func(Descriptor) (ok bool, reason string)

// AdmitAll accepts every structurally valid descriptor.
func AdmitAll(Descriptor) (bool, string) { return true, "" }

// RequireAny admits a device if it satisfies at least one requirement —
// the static half of the static/dynamic safety-check split challenge (f)
// describes.
func RequireAny(reqs ...Requirement) AdmissionPolicy {
	return func(d Descriptor) (bool, string) {
		if len(reqs) == 0 {
			return true, ""
		}
		var lastReason string
		for _, r := range reqs {
			if ok, reason := r.SatisfiedBy(d); ok {
				return true, ""
			} else {
				lastReason = reason
			}
		}
		return false, lastReason
	}
}

// ManagerConfig configures the ICE manager.
type ManagerConfig struct {
	Addr              string        // network address (default "ice-manager")
	HeartbeatInterval time.Duration // expected device heartbeat period
	LivenessTimeout   time.Duration // silence before a device is declared stale
	Admission         AdmissionPolicy
	Auth              Authenticator // nil disables authentication

	// Codec is the endpoint's wire codec; nil means a fresh instance.
	// Pass the same instance to every endpoint of a cell to share its
	// intern table and encode accounting (codec instances are
	// single-threaded, like the cell itself).
	Codec *icewire.Binary
}

// DefaultManagerConfig returns sane clinical defaults: 1 s heartbeats,
// 3.5 s liveness timeout.
func DefaultManagerConfig() ManagerConfig {
	return ManagerConfig{
		Addr:              "ice-manager",
		HeartbeatInterval: time.Second,
		LivenessTimeout:   3500 * time.Millisecond,
		Admission:         AdmitAll,
	}
}

// DeviceStatus is the manager's view of one connected device.
type DeviceStatus struct {
	Descriptor   Descriptor
	Admitted     bool
	Alive        bool
	LastSeen     sim.Time
	AuthFailures uint64
}

// replayWindow implements IPsec-style sliding-window anti-replay so that
// network duplicates and replayed envelopes are rejected while jitter-
// reordered fresh messages still pass.
type replayWindow struct {
	highest uint64
	bitmap  uint64 // bit i set => (highest - i) seen, i in [0,63]
	primed  bool
}

// admit reports whether seq is fresh, and records it.
func (w *replayWindow) admit(seq uint64) bool {
	if !w.primed {
		w.primed = true
		w.highest = seq
		w.bitmap = 1
		return true
	}
	switch {
	case seq > w.highest:
		shift := seq - w.highest
		if shift >= 64 {
			w.bitmap = 1
		} else {
			w.bitmap = w.bitmap<<shift | 1
		}
		w.highest = seq
		return true
	case w.highest-seq >= 64:
		return false // too old to judge: reject
	default:
		bit := uint64(1) << (w.highest - seq)
		if w.bitmap&bit != 0 {
			return false // duplicate
		}
		w.bitmap |= bit
		return true
	}
}

type managedDevice struct {
	id     string
	status DeviceStatus
	replay replayWindow
}

type subscription struct {
	pattern topicParts
	fn      func(from string, d Datum)
}

// pendingCmd tracks one acknowledged command in flight. It doubles as the
// argument of its own timeout event (scheduled closure-free via AfterFunc
// and canceled by EventID when the ack lands).
type pendingCmd struct {
	m        *Manager
	id       uint64
	name     string
	deviceID string
	wait     time.Duration
	fn       func(CommandAck, error)
	timeout  sim.EventID
}

// cmdTimeout fires when a command's acknowledgement never arrived;
// package-level so scheduling it allocates nothing beyond the pendingCmd.
// The slot is recycled before fn runs, since fn may send a retry.
func cmdTimeout(arg any) {
	p := arg.(*pendingCmd)
	if q, ok := p.m.pending[p.id]; !ok || q != p {
		return // acked (or superseded) in the meantime
	}
	delete(p.m.pending, p.id)
	m, id, name, deviceID, wait, fn := p.m, p.id, p.name, p.deviceID, p.wait, p.fn
	*p = pendingCmd{}
	m.cmdPool = append(m.cmdPool, p)
	fn(CommandAck{ID: id}, fmt.Errorf("core: command %s to %s timed out after %v", name, deviceID, wait))
}

// Manager is the ICE supervisor host and network controller: it admits
// devices, tracks liveness, routes published data to subscribed apps, and
// carries acknowledged commands to actuators.
type Manager struct {
	cfg     ManagerConfig
	k       *sim.Kernel
	net     *mednet.Network
	codec   *icewire.Binary
	devices map[string]*managedDevice
	subs    []subscription
	watch   []func(id string, st DeviceStatus)
	pending map[uint64]*pendingCmd
	seq     uint64
	cmdSeq  uint64
	sweeper *sim.Ticker

	// admitted holds the devices of the map in admission order, for the
	// liveness sweep and Devices. A re-announce keeps its slot: it
	// re-admits into the same *managedDevice.
	admitted []*managedDevice

	// cmdPool recycles pendingCmd slots so acknowledged commands do not
	// allocate one per send at steady state.
	cmdPool []*pendingCmd

	// Scratch state for the zero-allocation receive path: each incoming
	// frame decodes into these manager-owned slots (handlers run
	// synchronously, one message at a time, so the slots are never live
	// across messages), so no per-message value escapes to the heap.
	envScratch   Envelope
	datumScratch Datum
	ackScratch   CommandAck
	cmdScratch   Command // outgoing SendCommand body

	// Counters for experiments and audit.
	AuthRejected   uint64
	ReplayRejected uint64
	Malformed      uint64
}

// NewManager attaches a manager to the network and starts liveness sweeps.
func NewManager(k *sim.Kernel, net *mednet.Network, cfg ManagerConfig) (*Manager, error) {
	if cfg.Addr == "" {
		cfg.Addr = "ice-manager"
	}
	if cfg.HeartbeatInterval <= 0 || cfg.LivenessTimeout <= 0 {
		return nil, errors.New("core: heartbeat interval and liveness timeout must be positive")
	}
	if cfg.LivenessTimeout <= cfg.HeartbeatInterval {
		return nil, errors.New("core: liveness timeout must exceed heartbeat interval")
	}
	if cfg.Admission == nil {
		cfg.Admission = AdmitAll
	}
	if cfg.Codec == nil {
		cfg.Codec = icewire.NewBinary()
	}
	m := &Manager{
		cfg:     cfg,
		k:       k,
		net:     net,
		codec:   cfg.Codec,
		devices: make(map[string]*managedDevice),
		pending: make(map[uint64]*pendingCmd),
	}
	net.Register(cfg.Addr, m.onMessage)
	m.sweeper = k.Every(cfg.HeartbeatInterval, func(sim.Time) { m.sweepLiveness() })
	return m, nil
}

// MustNewManager is NewManager for known-good configuration.
func MustNewManager(k *sim.Kernel, net *mednet.Network, cfg ManagerConfig) *Manager {
	m, err := NewManager(k, net, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Addr returns the manager's network address.
func (m *Manager) Addr() string { return m.cfg.Addr }

// Close detaches the manager from the network and stops sweeps.
func (m *Manager) Close() {
	m.sweeper.Stop()
	m.net.Unregister(m.cfg.Addr)
}

// Subscribe routes every published datum whose topic matches the pattern
// ("device/capability", "*" wildcards per segment) to fn.
func (m *Manager) Subscribe(pattern string, fn func(from string, d Datum)) {
	if fn == nil {
		panic("core: nil subscription callback")
	}
	m.subs = append(m.subs, subscription{pattern: splitParts(pattern), fn: fn})
}

// WatchDevices registers fn to be called on every admission, departure and
// liveness transition, with the device's current status.
func (m *Manager) WatchDevices(fn func(id string, st DeviceStatus)) {
	m.watch = append(m.watch, fn)
}

// Device reports the status of a connected device.
func (m *Manager) Device(id string) (DeviceStatus, bool) {
	d, ok := m.devices[id]
	if !ok {
		return DeviceStatus{}, false
	}
	return d.status, true
}

// Devices lists the IDs of all admitted devices, in admission order.
func (m *Manager) Devices() []string {
	var out []string
	for _, d := range m.admitted {
		if d.status.Admitted {
			out = append(out, d.id)
		}
	}
	return out
}

// SendCommand delivers an actuator command to a device and invokes fn with
// the acknowledgement, or with an error after timeout. fn may be nil for
// fire-and-forget.
func (m *Manager) SendCommand(deviceID, name string, args map[string]float64, timeout time.Duration, fn func(CommandAck, error)) {
	m.cmdSeq++
	m.cmdScratch = Command{ID: m.cmdSeq, Name: name, Args: args}
	if fn != nil {
		var p *pendingCmd
		if last := len(m.cmdPool) - 1; last >= 0 {
			p = m.cmdPool[last]
			m.cmdPool = m.cmdPool[:last]
		} else {
			p = &pendingCmd{}
		}
		*p = pendingCmd{m: m, id: m.cmdSeq, name: name, deviceID: deviceID, wait: timeout, fn: fn}
		p.timeout = m.k.AfterFunc(timeout, cmdTimeout, p)
		m.pending[m.cmdSeq] = p
	}
	m.send(deviceID, MsgCommand, &m.cmdScratch)
}

// send encodes one envelope straight into a pooled network buffer —
// and, when authentication is on, signs the encoded frame once and
// patches the tag in, instead of the historical decode → set Auth →
// re-marshal round trip. See sendFrame.
func (m *Manager) send(to string, t MsgType, body any) {
	m.seq++
	sendFrame(m.net, m.codec, m.cfg.Auth, t, m.cfg.Addr, to, m.seq, m.k.Now(), body)
}

func (m *Manager) onMessage(msg mednet.Message) {
	// Decode into the manager-owned scratch slot: handlers run
	// synchronously one message at a time, so the slot is never live
	// across messages and no per-message envelope reaches the heap. The
	// datagram's addresses name the frame's sender and recipient unless
	// the frame disagrees, so they spare the codec's intern lookups.
	env := &m.envScratch
	if err := m.codec.DecodeInto(env, msg.Payload, msg.From, msg.To); err != nil {
		m.Malformed++
		return
	}
	// The frame's one device lookup (nil for an unknown sender). Nothing
	// before the handlers below changes the registry.
	d := m.devices[env.From]
	if err := verifyEnvelope(m.cfg.Auth, env); err != nil {
		m.AuthRejected++
		if d != nil {
			d.status.AuthFailures++
		}
		return
	}
	// Anti-replay per sender (also deduplicates network-duplicated
	// frames); announce may legitimately restart seq after reboot.
	if env.Type != MsgAnnounce && d != nil && !d.replay.admit(env.Seq) {
		m.ReplayRejected++
		return
	}

	switch env.Type {
	case MsgAnnounce:
		m.handleAnnounce(env)
	case MsgPublish:
		m.handlePublish(env, d)
	case MsgCommandAck:
		m.handleCommandAck(env, d)
	case MsgHeartbeat:
		m.touch(d)
	case MsgBye:
		m.handleBye(env)
	default:
		m.Malformed++
	}
}

func (m *Manager) handleAnnounce(env *Envelope) {
	var desc Descriptor
	if err := env.DecodeBody(&desc); err != nil {
		m.Malformed++
		return
	}
	if desc.ID != env.From {
		m.Malformed++
		return
	}
	result := AdmitResult{OK: true}
	if err := desc.Validate(); err != nil {
		result = AdmitResult{OK: false, Reason: err.Error()}
	} else if ok, reason := m.cfg.Admission(desc); !ok {
		result = AdmitResult{OK: false, Reason: reason}
	}
	if result.OK {
		d := m.devices[desc.ID]
		if d == nil {
			d = &managedDevice{}
			m.devices[desc.ID] = d
			m.admitted = append(m.admitted, d)
		}
		*d = managedDevice{id: desc.ID, status: DeviceStatus{
			Descriptor: desc, Admitted: true, Alive: true, LastSeen: m.k.Now(),
		}}
		d.replay.admit(env.Seq)
		m.notify(d)
	}
	m.send(env.From, MsgAdmit, result)
}

func (m *Manager) handlePublish(env *Envelope, d *managedDevice) {
	if d == nil || !d.status.Admitted {
		return // not admitted: data from unknown devices is discarded
	}
	if err := env.DecodeBody(&m.datumScratch); err != nil {
		m.Malformed++
		return
	}
	datum := m.datumScratch
	topic := splitParts(datum.Topic)
	if !topic.ok || topic.device != env.From {
		m.Malformed++ // devices may only publish under their own prefix
		return
	}
	m.touch(d)
	for _, s := range m.subs {
		if s.pattern.matches(topic) {
			s.fn(env.From, datum)
		}
	}
}

func (m *Manager) handleCommandAck(env *Envelope, d *managedDevice) {
	if err := env.DecodeBody(&m.ackScratch); err != nil {
		m.Malformed++
		return
	}
	ack := m.ackScratch
	m.touch(d)
	if p, ok := m.pending[ack.ID]; ok {
		delete(m.pending, ack.ID)
		m.k.Cancel(p.timeout)
		// Recycle before invoking fn: the callback may send a retry,
		// which pops from the pool.
		fn := p.fn
		*p = pendingCmd{}
		m.cmdPool = append(m.cmdPool, p)
		fn(ack, nil)
	}
}

func (m *Manager) handleBye(env *Envelope) {
	d, ok := m.devices[env.From]
	if !ok {
		return
	}
	delete(m.devices, env.From)
	m.admitted = slices.DeleteFunc(m.admitted, func(a *managedDevice) bool { return a == d })
	for _, w := range m.watch {
		w(env.From, DeviceStatus{Admitted: false, Alive: false, LastSeen: m.k.Now()})
	}
}

// touch records a sign of life from d; nil (an unknown sender) is a no-op.
func (m *Manager) touch(d *managedDevice) {
	if d == nil {
		return
	}
	d.status.LastSeen = m.k.Now()
	if !d.status.Alive {
		d.status.Alive = true
		m.notify(d)
	}
}

// sweepLiveness marks silent devices stale; watchers see devices that go
// stale in the same sweep in admission order.
func (m *Manager) sweepLiveness() {
	cutoff := m.k.Now() - sim.Time(m.cfg.LivenessTimeout)
	for _, d := range m.admitted {
		if d.status.Alive && d.status.LastSeen < cutoff {
			d.status.Alive = false
			m.notify(d)
		}
	}
}

func (m *Manager) notify(d *managedDevice) {
	st := d.status
	for _, w := range m.watch {
		w(d.id, st)
	}
}
