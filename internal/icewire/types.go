// Package icewire defines the ICE wire protocol: the message types every
// subsystem exchanges over mednet, and Binary, the one codec that puts
// them on the wire — a length-prefixed binary frame format with varint
// integers and typed body encoders (see binary.go for the frame
// layout). It exists because the envelope codec dominated per-cell cost
// once the kernel and delivery paths went allocation-free: short,
// fixed-shape messages sent millions of times per run are exactly where
// a compact, carefully specified encoding pays off. Steady-state encode
// and decode are 0 allocs/op. Every message has one canonical frame and
// one signing form, so captured traffic can be checked after the fact.
//
// The type definitions live here (rather than internal/core) so the
// codec, core, and the fuzz harnesses share one source of truth
// without an import cycle; internal/core aliases everything, so
// the rest of the tree keeps saying core.Datum.
package icewire

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/sim"
)

// MsgType enumerates the ICE wire protocol message types.
type MsgType string

const (
	MsgAnnounce   MsgType = "announce"    // device -> manager: descriptor
	MsgAdmit      MsgType = "admit"       // manager -> device: admission result
	MsgPublish    MsgType = "publish"     // device -> manager: sensor datum
	MsgCommand    MsgType = "command"     // manager -> device: actuator command
	MsgCommandAck MsgType = "command-ack" // device -> manager
	MsgHeartbeat  MsgType = "heartbeat"   // device -> manager liveness
	MsgBye        MsgType = "bye"         // device -> manager: orderly leave
)

// Envelope is the wire representation of every ICE message. Body holds
// the typed binary body encoding; DecodeBody decodes it with the codec
// that decoded the envelope. Auth carries the optional HMAC tag added by
// internal/security; it covers every field except itself (see
// SigningBytes for the canonical byte string).
type Envelope struct {
	Type MsgType
	From string
	To   string
	Seq  uint64
	At   sim.Time
	Body []byte
	Auth []byte

	// codec is the codec that produced this envelope via Decode; nil on
	// hand-built envelopes.
	codec *Binary
	// signing, when non-nil, is the canonical signing window of the
	// frame this envelope was decoded from — a subslice of the original
	// frame, valid only as long as the frame's buffer is. Decode always
	// sets it, so verification is zero-copy.
	signing []byte
}

// Datum is the body of a MsgPublish: one sensor observation.
type Datum struct {
	Topic   string   `json:"topic"`
	Value   float64  `json:"value"`
	Valid   bool     `json:"valid"`
	Quality float64  `json:"quality"` // [0,1] signal-quality index
	Sampled sim.Time `json:"sampled"` // when the underlying signal was measured
}

// Command is the body of a MsgCommand.
type Command struct {
	ID   uint64             `json:"id"`
	Name string             `json:"name"`
	Args map[string]float64 `json:"args,omitempty"`
}

// CommandAck is the body of a MsgCommandAck.
type CommandAck struct {
	ID  uint64 `json:"id"`
	OK  bool   `json:"ok"`
	Err string `json:"err,omitempty"`
}

// AdmitResult is the body of a MsgAdmit.
type AdmitResult struct {
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
}

// DeviceKind classifies a device for admission checks and app matching.
type DeviceKind string

// Kinds used by the scenarios in the paper.
const (
	KindInfusionPump  DeviceKind = "infusion-pump"
	KindPulseOximeter DeviceKind = "pulse-oximeter"
	KindVentilator    DeviceKind = "ventilator"
	KindXRay          DeviceKind = "x-ray"
	KindMonitor       DeviceKind = "patient-monitor"
	KindBed           DeviceKind = "hospital-bed"
	KindCapnograph    DeviceKind = "capnograph"
)

// CapabilityClass distinguishes what a capability does.
type CapabilityClass string

const (
	ClassSensor   CapabilityClass = "sensor"   // publishes measurements
	ClassActuator CapabilityClass = "actuator" // accepts commands
	ClassSetting  CapabilityClass = "setting"  // accepts configuration
	ClassEvent    CapabilityClass = "event"    // publishes discrete events
)

// Capability is one named function a device offers. Sensor capabilities
// publish on topic "<deviceID>/<name>"; actuator capabilities accept
// commands named "<name>".
type Capability struct {
	Name  string          `json:"name"`
	Class CapabilityClass `json:"class"`
	Unit  string          `json:"unit,omitempty"`
	// Criticality is the FDA-style class of the function (1 = lowest,
	// 3 = highest). The mixed-criticality scenario (III.l) needs this:
	// a Class I bed publishes context events consumed by a Class III
	// monitoring function.
	Criticality int `json:"criticality"`
}

// Descriptor is the self-description a device transmits when announcing —
// the body of a MsgAnnounce.
type Descriptor struct {
	ID           string       `json:"id"`
	Kind         DeviceKind   `json:"kind"`
	Manufacturer string       `json:"manufacturer"`
	Model        string       `json:"model"`
	Version      string       `json:"version"`
	Capabilities []Capability `json:"capabilities"`
}

// Validate reports an error for descriptors unusable for admission.
func (d Descriptor) Validate() error {
	if d.ID == "" {
		return errors.New("core: descriptor missing ID")
	}
	if strings.ContainsAny(d.ID, "/ \t\n") {
		return fmt.Errorf("core: device ID %q contains reserved characters", d.ID)
	}
	if d.Kind == "" {
		return errors.New("core: descriptor missing kind")
	}
	seen := make(map[string]bool, len(d.Capabilities))
	for _, c := range d.Capabilities {
		if c.Name == "" {
			return fmt.Errorf("core: device %s has unnamed capability", d.ID)
		}
		if seen[c.Name] {
			return fmt.Errorf("core: device %s duplicates capability %q", d.ID, c.Name)
		}
		seen[c.Name] = true
		switch c.Class {
		case ClassSensor, ClassActuator, ClassSetting, ClassEvent:
		default:
			return fmt.Errorf("core: device %s capability %q has unknown class %q", d.ID, c.Name, c.Class)
		}
		if c.Criticality < 1 || c.Criticality > 3 {
			return fmt.Errorf("core: device %s capability %q criticality %d outside [1,3]", d.ID, c.Name, c.Criticality)
		}
	}
	return nil
}

// Has reports whether the descriptor offers a capability with the name and
// class.
func (d Descriptor) Has(name string, class CapabilityClass) bool {
	for _, c := range d.Capabilities {
		if c.Name == name && c.Class == class {
			return true
		}
	}
	return false
}
