package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// promSample is one scrape of a Prometheus text exposition: every
// sample's value keyed by its series, the metric name plus its label
// block exactly as exposed (`icegate_queue_wait_seconds_sum{lane="batch"}`).
type promSample map[string]float64

// parseProm reads the sample lines of a text exposition, skipping
// comments. Values of +Inf/-Inf/NaN parse as their float64 forms.
func parseProm(text string) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", ln, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", ln, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is after − before per series; a series absent before counts
// from zero, which is how a labeled child appears on first use.
func (after promSample) delta(before promSample) promSample {
	d := make(promSample, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// histMean is a histogram's mean over the sampled interval, from its
// _sum and _count series; label is the label block without braces (""
// for an unlabeled histogram). An interval with no observations reads 0.
func (s promSample) histMean(name, label string) float64 {
	suffix := ""
	if label != "" {
		suffix = "{" + label + "}"
	}
	n := s[name+"_count"+suffix]
	if n == 0 {
		return 0
	}
	return s[name+"_sum"+suffix] / n
}
