package core

import (
	"fmt"
	"time"

	"repro/internal/icewire"
	"repro/internal/mednet"
	"repro/internal/sim"
)

// CommandHandler executes one actuator command on the device. A non-nil
// error is reported back to the manager in the acknowledgement.
type CommandHandler func(args map[string]float64) error

// DeviceConn is the device-side ICE endpoint: it announces the device,
// sends heartbeats, publishes sensor data, and dispatches incoming
// commands to registered handlers. Concrete devices in internal/device
// embed one.
type DeviceConn struct {
	desc    Descriptor
	mgrAddr string
	k       *sim.Kernel
	net     *mednet.Network
	auth    Authenticator
	codec   *icewire.Binary
	seq     uint64
	beat    *sim.Ticker
	replay  replayWindow

	admitted  bool
	admitErr  string
	onAdmit   []func(ok bool, reason string)
	handlers  map[string]CommandHandler
	connected bool

	// topics[i] is Topic(id, desc.Capabilities[i].Name), built at
	// Connect so the publish hot path never builds a string.
	topics []string

	// Scratch state for the zero-allocation send/receive paths; see
	// Manager for the rationale.
	envScratch   Envelope
	datumScratch Datum
	cmdScratch   Command
	ackScratch   CommandAck
	admitScratch AdmitResult

	// Counters for experiments.
	CommandsOK     uint64
	CommandsFailed uint64
	AuthRejected   uint64
}

// ConnectConfig carries the optional knobs for a device connection.
type ConnectConfig struct {
	ManagerAddr       string        // default "ice-manager"
	HeartbeatInterval time.Duration // default 1 s
	Auth              Authenticator // nil disables signing

	// Codec is the endpoint's wire codec; nil means a fresh instance.
	// See ManagerConfig.Codec.
	Codec *icewire.Binary
}

// Connect registers the device on the network and announces it to the
// manager. The returned connection is live immediately; admission status
// arrives asynchronously via OnAdmit.
func Connect(k *sim.Kernel, net *mednet.Network, desc Descriptor, cfg ConnectConfig) (*DeviceConn, error) {
	if err := desc.Validate(); err != nil {
		return nil, err
	}
	if cfg.ManagerAddr == "" {
		cfg.ManagerAddr = "ice-manager"
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = time.Second
	}
	if cfg.Codec == nil {
		cfg.Codec = icewire.NewBinary()
	}
	c := &DeviceConn{
		desc:      desc,
		mgrAddr:   cfg.ManagerAddr,
		k:         k,
		net:       net,
		auth:      cfg.Auth,
		codec:     cfg.Codec,
		handlers:  make(map[string]CommandHandler),
		topics:    make([]string, len(desc.Capabilities)),
		connected: true,
	}
	for i, cb := range desc.Capabilities {
		c.topics[i] = Topic(desc.ID, cb.Name)
	}
	net.Register(desc.ID, c.onMessage)
	c.sendEnvelope(MsgAnnounce, &c.desc)
	c.beat = k.Every(cfg.HeartbeatInterval, func(sim.Time) {
		if c.connected {
			c.sendEnvelope(MsgHeartbeat, nil)
		}
	})
	return c, nil
}

// MustConnect is Connect for known-good descriptors.
func MustConnect(k *sim.Kernel, net *mednet.Network, desc Descriptor, cfg ConnectConfig) *DeviceConn {
	c, err := Connect(k, net, desc, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// ID returns the device's network identity.
func (c *DeviceConn) ID() string { return c.desc.ID }

// Descriptor returns the announced self-description.
func (c *DeviceConn) Descriptor() Descriptor { return c.desc }

// Admitted reports the admission state (false until the admit reply lands).
func (c *DeviceConn) Admitted() bool { return c.admitted }

// OnAdmit registers fn to run when the admission result arrives.
func (c *DeviceConn) OnAdmit(fn func(ok bool, reason string)) {
	c.onAdmit = append(c.onAdmit, fn)
}

// Handle registers the executor for a named actuator command. The
// capability must have been declared in the descriptor; otherwise the
// registration panics — it is a programming error for a device to accept
// commands it did not advertise.
func (c *DeviceConn) Handle(name string, h CommandHandler) {
	if !c.desc.Has(name, ClassActuator) && !c.desc.Has(name, ClassSetting) {
		panic(fmt.Sprintf("core: device %s handling unadvertised command %q", c.desc.ID, name))
	}
	c.handlers[name] = h
}

// Publish sends one observation for a declared sensor or event capability.
func (c *DeviceConn) Publish(capability string, value float64, valid bool, quality float64, sampled sim.Time) {
	if !c.connected {
		return
	}
	topic := ""
	for i := range c.desc.Capabilities {
		// Validate made names unique, so the first name match decides.
		if cb := &c.desc.Capabilities[i]; cb.Name == capability {
			if cb.Class == ClassSensor || cb.Class == ClassEvent {
				topic = c.topics[i]
			}
			break
		}
	}
	if topic == "" {
		panic(fmt.Sprintf("core: device %s publishing unadvertised capability %q", c.desc.ID, capability))
	}
	c.datumScratch = Datum{
		Topic: topic, Value: value, Valid: valid,
		Quality: quality, Sampled: sampled,
	}
	c.sendEnvelope(MsgPublish, &c.datumScratch)
}

// Bye leaves the ICE in an orderly fashion and detaches from the network.
func (c *DeviceConn) Bye() {
	if !c.connected {
		return
	}
	c.sendEnvelope(MsgBye, nil)
	c.Crash()
}

// Crash detaches abruptly: no farewell, heartbeats stop. The manager will
// notice via liveness timeout — this is the failure mode experiments inject.
func (c *DeviceConn) Crash() {
	c.connected = false
	c.beat.Stop()
	c.net.Unregister(c.desc.ID)
}

// Connected reports whether the device endpoint is attached.
func (c *DeviceConn) Connected() bool { return c.connected }

// sendEnvelope mirrors Manager.send: encode once into a pooled network
// buffer, sign the encoded frame, patch the tag in. See sendFrame.
func (c *DeviceConn) sendEnvelope(t MsgType, body any) {
	c.seq++
	sendFrame(c.net, c.codec, c.auth, t, c.desc.ID, c.mgrAddr, c.seq, c.k.Now(), body)
}

func (c *DeviceConn) onMessage(msg mednet.Message) {
	env := &c.envScratch
	if c.codec.DecodeInto(env, msg.Payload, msg.From, msg.To) != nil {
		return
	}
	if err := verifyEnvelope(c.auth, env); err != nil {
		c.AuthRejected++
		return
	}
	if !c.replay.admit(env.Seq) {
		return
	}
	switch env.Type {
	case MsgAdmit:
		if env.DecodeBody(&c.admitScratch) != nil {
			return
		}
		res := c.admitScratch
		c.admitted = res.OK
		c.admitErr = res.Reason
		for _, fn := range c.onAdmit {
			fn(res.OK, res.Reason)
		}
	case MsgCommand:
		if env.DecodeBody(&c.cmdScratch) != nil {
			return
		}
		cmd := c.cmdScratch
		c.ackScratch = CommandAck{ID: cmd.ID, OK: true}
		if h, ok := c.handlers[cmd.Name]; !ok {
			c.ackScratch.OK = false
			c.ackScratch.Err = fmt.Sprintf("unknown command %q", cmd.Name)
		} else if err := h(cmd.Args); err != nil {
			c.ackScratch.OK = false
			c.ackScratch.Err = err.Error()
		}
		if c.ackScratch.OK {
			c.CommandsOK++
		} else {
			c.CommandsFailed++
		}
		c.sendEnvelope(MsgCommandAck, &c.ackScratch)
	}
}
