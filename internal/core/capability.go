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
	return splitParts(pattern).matches(splitParts(topic))
}

// topicParts is a topic or pattern split once by SplitTopic, so the
// manager splits each subscription pattern at Subscribe and each
// published topic once, however many subscriptions it is matched
// against.
type topicParts struct {
	whole, device, capability string
	ok                        bool // SplitTopic's ok; a malformed pattern matches only itself
}

func splitParts(s string) topicParts {
	device, capability, ok := SplitTopic(s)
	return topicParts{whole: s, device: device, capability: capability, ok: ok}
}

// matches is MatchTopic's rule: p is the pattern, t the topic.
func (p topicParts) matches(t topicParts) bool {
	if !p.ok {
		return p.whole == t.whole
	}
	return t.ok && (p.device == "*" || p.device == t.device) &&
		(p.capability == "*" || p.capability == t.capability)
}
