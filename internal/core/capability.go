package core

import (
	"fmt"
	"strings"

	"repro/internal/icewire"
)

// Device self-description travels on the wire (the body of a
// MsgAnnounce), so the types live in internal/icewire next to their
// codec; core aliases them.
type (
	DeviceKind      = icewire.DeviceKind
	CapabilityClass = icewire.CapabilityClass
	Capability      = icewire.Capability
	Descriptor      = icewire.Descriptor
)

// Kinds used by the scenarios in the paper.
const (
	KindInfusionPump  = icewire.KindInfusionPump
	KindPulseOximeter = icewire.KindPulseOximeter
	KindVentilator    = icewire.KindVentilator
	KindXRay          = icewire.KindXRay
	KindMonitor       = icewire.KindMonitor
	KindBed           = icewire.KindBed
	KindCapnograph    = icewire.KindCapnograph
)

const (
	ClassSensor   = icewire.ClassSensor
	ClassActuator = icewire.ClassActuator
	ClassSetting  = icewire.ClassSetting
	ClassEvent    = icewire.ClassEvent
)

// Requirement expresses what a clinical scenario needs from a device slot
// before the ICE may compose it (the "requirements for devices that can be
// safely used in a scenario" of challenge (f)).
type Requirement struct {
	Kind         DeviceKind
	Capabilities []Capability // name+class must match; unit if non-empty
}

// SatisfiedBy reports whether the descriptor can fill this requirement,
// with a reason when it cannot.
func (r Requirement) SatisfiedBy(d Descriptor) (bool, string) {
	if r.Kind != "" && r.Kind != d.Kind {
		return false, fmt.Sprintf("kind %s does not match required %s", d.Kind, r.Kind)
	}
	for _, want := range r.Capabilities {
		found := false
		for _, have := range d.Capabilities {
			if have.Name == want.Name && have.Class == want.Class &&
				(want.Unit == "" || want.Unit == have.Unit) {
				found = true
				break
			}
		}
		if !found {
			return false, fmt.Sprintf("missing capability %s/%s", want.Name, want.Class)
		}
	}
	return true, ""
}

// Topic returns the bus topic a device publishes a sensor capability on.
func Topic(deviceID, capability string) string {
	return deviceID + "/" + capability
}

// SplitTopic decomposes a topic into device and capability. ok is false
// for malformed topics.
func SplitTopic(topic string) (deviceID, capability string, ok bool) {
	i := strings.IndexByte(topic, '/')
	if i <= 0 || i == len(topic)-1 {
		return "", "", false
	}
	return topic[:i], topic[i+1:], true
}

// MatchTopic matches a topic against a pattern where "*" matches a whole
// segment: "pump1/*" matches every capability of pump1; "*/spo2" matches
// spo2 from any device; "*/*" matches everything.
func MatchTopic(pattern, topic string) bool {
	pd, pc, ok := SplitTopic(pattern)
	if !ok {
		return pattern == topic
	}
	td, tc, ok := SplitTopic(topic)
	if !ok {
		return false
	}
	if pd != "*" && pd != td {
		return false
	}
	if pc != "*" && pc != tc {
		return false
	}
	return true
}
