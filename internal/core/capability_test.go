package core

import (
	"testing"
	"testing/quick"
)

func oximeterDesc(id string) Descriptor {
	return Descriptor{
		ID: id, Kind: KindPulseOximeter, Manufacturer: "Acme", Model: "OX-9", Version: "1.0",
		Capabilities: []Capability{
			{Name: "spo2", Class: ClassSensor, Unit: "%", Criticality: 3},
			{Name: "heart-rate", Class: ClassSensor, Unit: "bpm", Criticality: 3},
		},
	}
}

func pumpDesc(id string) Descriptor {
	return Descriptor{
		ID: id, Kind: KindInfusionPump, Manufacturer: "Acme", Model: "PCA-1", Version: "2.1",
		Capabilities: []Capability{
			{Name: "infusion-rate", Class: ClassSensor, Unit: "mg/min", Criticality: 3},
			{Name: "stop", Class: ClassActuator, Criticality: 3},
			{Name: "resume", Class: ClassActuator, Criticality: 3},
			{Name: "bolus", Class: ClassActuator, Unit: "mg", Criticality: 3},
		},
	}
}

func TestDescriptorValidate(t *testing.T) {
	if err := oximeterDesc("ox1").Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*Descriptor)
	}{
		{"empty id", func(d *Descriptor) { d.ID = "" }},
		{"slash in id", func(d *Descriptor) { d.ID = "a/b" }},
		{"space in id", func(d *Descriptor) { d.ID = "a b" }},
		{"empty kind", func(d *Descriptor) { d.Kind = "" }},
		{"unnamed cap", func(d *Descriptor) { d.Capabilities[0].Name = "" }},
		{"dup cap", func(d *Descriptor) { d.Capabilities[1].Name = d.Capabilities[0].Name }},
		{"bad class", func(d *Descriptor) { d.Capabilities[0].Class = "wat" }},
		{"criticality 0", func(d *Descriptor) { d.Capabilities[0].Criticality = 0 }},
		{"criticality 4", func(d *Descriptor) { d.Capabilities[0].Criticality = 4 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := oximeterDesc("ox1")
			c.mut(&d)
			if err := d.Validate(); err == nil {
				t.Fatalf("invalid descriptor accepted: %+v", d)
			}
		})
	}
}

func TestDescriptorHas(t *testing.T) {
	d := pumpDesc("p1")
	if !d.Has("stop", ClassActuator) {
		t.Fatal("missing stop actuator")
	}
	if d.Has("stop", ClassSensor) {
		t.Fatal("class confusion")
	}
	if d.Has("nope", ClassActuator) {
		t.Fatal("phantom capability")
	}
}

func TestRequirementSatisfiedBy(t *testing.T) {
	req := Requirement{
		Kind: KindInfusionPump,
		Capabilities: []Capability{
			{Name: "stop", Class: ClassActuator},
			{Name: "infusion-rate", Class: ClassSensor, Unit: "mg/min"},
		},
	}
	if ok, reason := req.SatisfiedBy(pumpDesc("p1")); !ok {
		t.Fatalf("pump should satisfy: %s", reason)
	}
	if ok, _ := req.SatisfiedBy(oximeterDesc("ox1")); ok {
		t.Fatal("oximeter satisfied pump requirement")
	}
	// Unit mismatch is a mismatch.
	req.Capabilities[1].Unit = "mL/h"
	if ok, _ := req.SatisfiedBy(pumpDesc("p1")); ok {
		t.Fatal("unit mismatch accepted")
	}
	// Kind-less requirement matches on capabilities alone.
	anyStop := Requirement{Capabilities: []Capability{{Name: "stop", Class: ClassActuator}}}
	if ok, _ := anyStop.SatisfiedBy(pumpDesc("p1")); !ok {
		t.Fatal("kind-less requirement rejected pump")
	}
}

func TestTopicSplitAndMatch(t *testing.T) {
	top := Topic("ox1", "spo2")
	if top != "ox1/spo2" {
		t.Fatalf("topic = %q", top)
	}
	d, c, ok := SplitTopic(top)
	if !ok || d != "ox1" || c != "spo2" {
		t.Fatalf("split = %q %q %v", d, c, ok)
	}
	for _, bad := range []string{"", "noslash", "/x", "x/"} {
		if _, _, ok := SplitTopic(bad); ok {
			t.Fatalf("split accepted %q", bad)
		}
	}
	match := []struct {
		pattern, topic string
		want           bool
	}{
		{"ox1/spo2", "ox1/spo2", true},
		{"ox1/*", "ox1/spo2", true},
		{"*/spo2", "ox1/spo2", true},
		{"*/*", "anything/at-all", true},
		{"ox1/spo2", "ox2/spo2", false},
		{"*/hr", "ox1/spo2", false},
		{"ox1/*", "ox2/spo2", false},
		{"exact", "exact", true},
		{"exact", "other", false},
	}
	for _, m := range match {
		if got := MatchTopic(m.pattern, m.topic); got != m.want {
			t.Fatalf("MatchTopic(%q,%q) = %v, want %v", m.pattern, m.topic, got, m.want)
		}
	}
}

// Property: MatchTopic("*/*") accepts exactly the set of well-formed topics.
func TestMatchTopicWildcardProperty(t *testing.T) {
	f := func(dev, cap string) bool {
		topic := dev + "/" + cap
		_, _, wellFormed := SplitTopic(topic)
		return MatchTopic("*/*", topic) == wellFormed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReplayWindow(t *testing.T) {
	var w replayWindow
	if !w.admit(5) {
		t.Fatal("first seq rejected")
	}
	if w.admit(5) {
		t.Fatal("duplicate admitted")
	}
	if !w.admit(7) || !w.admit(6) {
		t.Fatal("fresh out-of-order rejected")
	}
	if w.admit(6) {
		t.Fatal("replayed 6 admitted")
	}
	if !w.admit(100) {
		t.Fatal("jump ahead rejected")
	}
	if w.admit(7) {
		t.Fatal("ancient seq admitted after window slid")
	}
	if !w.admit(90) {
		t.Fatal("in-window unseen seq rejected")
	}
	if w.admit(90) {
		t.Fatal("replayed 90 admitted")
	}
}

// Property: the window never admits the same sequence number twice.
func TestReplayWindowNoDoubleAdmitProperty(t *testing.T) {
	f := func(seqs []uint16) bool {
		var w replayWindow
		admitted := make(map[uint16]bool)
		for _, s := range seqs {
			if w.admit(uint64(s)) {
				if admitted[s] {
					return false
				}
				admitted[s] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The manager's pre-split subscriptions (pattern split once at Subscribe,
// topic split once per publish) match exactly what MatchTopic matches,
// over every pattern × topic pair of a grid that covers the malformed
// forms, the wildcards and a capability that itself holds a slash.
func TestPreSplitMatchEqualsMatchTopic(t *testing.T) {
	grid := []string{"", "a", "/b", "a/", "*", "*/*", "a/*", "*/b", "a/b", "a/b/c"}
	m := newRig(t, DefaultManagerConfig()).mgr
	for _, pattern := range grid {
		m.Subscribe(pattern, func(string, Datum) {})
		sub := m.subs[len(m.subs)-1]
		for _, topic := range grid {
			want := MatchTopic(pattern, topic)
			if got := sub.pattern.matches(splitParts(topic)); got != want {
				t.Errorf("pattern %q, topic %q: pre-split match %v, MatchTopic %v", pattern, topic, got, want)
			}
		}
	}
}
