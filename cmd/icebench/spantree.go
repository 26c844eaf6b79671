package main

import (
	"bufio"
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// spanFamilies are the span kinds a job trace holds, in the order the
// trace.self_share.* metrics list them. A span's family comes from its
// name with the instance parts (job IDs, shard ranges, node and scenario
// names) dropped; anything unrecognised is "other".
var spanFamilies = []string{
	"job", "queued", "run", "build_spec", "merge", "engine", "plan",
	"shard", "node", "node_shard", "proto_build", "cell_run", "other",
}

func spanFamily(name string) string {
	switch {
	case strings.HasPrefix(name, "job "):
		return "job"
	case strings.HasPrefix(name, "engine "):
		return "engine"
	case strings.HasPrefix(name, "node "):
		return "node"
	case strings.HasPrefix(name, "shard ") && strings.HasSuffix(name, ")"):
		return "node_shard" // a node's own shard span, forwarded to the coordinator
	case strings.HasPrefix(name, "shard "):
		return "shard" // the coordinator's span for the shard, named after its node
	}
	switch name {
	case "queued", "run", "merge", "plan":
		return name
	case "build spec", "proto build", "cell run":
		return strings.ReplaceAll(name, " ", "_")
	}
	return "other"
}

// spanLineRE matches one span of the gateway's text trace tree: two
// spaces of indent per level, the name, the duration in ms, then
// optional attributes.
var spanLineRE = regexp.MustCompile(`^( *)(.*?) +(\d+\.\d+)ms(?:  .*)?$`)

// addSelfTimes adds, per span family, the self time of every span in a
// text trace tree — its duration less its direct children's, floored at
// zero — to self (in ms). Parents come from the indentation.
func addSelfTimes(tree string, self map[string]float64) error {
	type node struct {
		depth      int
		family     string
		dur, child float64
	}
	var stack []node
	pop := func(depth int) {
		for len(stack) > 0 && stack[len(stack)-1].depth >= depth {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			self[n.family] += max(0, n.dur-n.child)
		}
	}
	sc := bufio.NewScanner(strings.NewReader(tree))
	for first := true; sc.Scan(); first = false {
		if first {
			continue // "trace <name>  <n> spans"
		}
		m := spanLineRE.FindStringSubmatch(sc.Text())
		if m == nil {
			return fmt.Errorf("trace tree: unparseable line %q", sc.Text())
		}
		dur, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return fmt.Errorf("trace tree: %w", err)
		}
		depth := len(m[1]) / 2
		pop(depth)
		if len(stack) > 0 {
			stack[len(stack)-1].child += dur
		}
		stack = append(stack, node{depth: depth, family: spanFamily(strings.TrimSuffix(m[2], " !")), dur: dur})
	}
	pop(0)
	return sc.Err()
}
