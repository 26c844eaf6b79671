package main

import (
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsSeeded(t *testing.T) {
	const window = 30 * time.Second
	n := wardArrivals(window)
	a, b := wardOps(7, window, n), wardOps(7, window, n)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different ward-open schedules")
	}
	if reflect.DeepEqual(a, wardOps(8, window, n)) {
		t.Fatal("different seeds gave the same ward-open schedule")
	}
	for _, wl := range []string{wlPCALocal, wlICUMesh} {
		if !reflect.DeepEqual(closedOp(wl, 7, 3), closedOp(wl, 7, 3)) {
			t.Errorf("%s: the same seed gave different requests", wl)
		}
		if reflect.DeepEqual(closedOp(wl, 7, 3).req, closedOp(wl, 8, 3).req) {
			t.Errorf("%s: different seeds gave the same request", wl)
		}
		if closedOp(wl, 7, 3).req.Key() == closedOp(wl, 7, 4).req.Key() {
			t.Errorf("%s: two requests of one run share a cache key", wl)
		}
	}
}

func TestWardScheduleShape(t *testing.T) {
	const window = 30 * time.Second
	ops := wardOps(3, window, wardArrivals(window))
	if len(ops) != 1200 {
		t.Fatalf("%d arrivals in 30 s at 40/s, want 1200", len(ops))
	}
	count := map[string]int{}
	keys := map[string]bool{}
	for i, o := range ops {
		count[o.class]++
		if o.due < 0 || o.due >= window || (i > 0 && o.due < ops[i-1].due) {
			t.Fatalf("arrival %d due at %v: outside the window or out of order", i, o.due)
		}
		if o.class != classRepeat {
			if keys[o.req.Key()] {
				t.Fatalf("unique request %d repeats key %s", i, o.req.Key())
			}
			keys[o.req.Key()] = true
		}
	}
	if count[classRepeat] != 840 || count[classComputed] != 240 || count[classBatch] != 120 {
		t.Fatalf("class mix %v, want 840 repeats, 240 computed, 120 batch", count)
	}
	pool := map[string]bool{}
	for _, req := range wardPoolRequests() {
		pool[req.Key()] = true
	}
	for _, o := range ops {
		if o.class == classRepeat && !pool[o.req.Key()] {
			t.Fatalf("repeat %s is not a pool key", o.req.Key())
		}
	}
	// The request at a position depends on the seed alone, not on how
	// many arrivals the window holds, so the checked prefix is stable.
	short := wardOps(3, time.Second, checkOps)
	for i := range short {
		if !reflect.DeepEqual(short[i].req, ops[i].req) || short[i].class != ops[i].class {
			t.Fatalf("request %d changes with the window length", i)
		}
	}
}
