package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/units"
)

// chromeEvent is one entry of the Chrome trace-event format (the JSON
// Array Format wrapped in an object), as consumed by Perfetto and
// chrome://tracing. Spans map to "X" (complete) events; "M" metadata
// events name the process and the per-track threads.
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Ph    string            `json:"ph"`
	TsUS  *float64          `json:"ts,omitempty"`
	DurUS *float64          `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Args  map[string]string `json:"args,omitempty"`
}

// chromeTrace is the top-level trace-event JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// DefaultTrack is the exporter lane for spans without an explicit track.
const DefaultTrack = "main"

// WriteChromeTrace writes spans as Chrome trace-event JSON. Timestamps
// are the spans' *simulated* microseconds — wall fields are deliberately
// excluded so same-seed traces are byte-identical regardless of the host
// (see DESIGN.md's dual-clock rules). Tracks become Perfetto threads in
// first-seen span order; span IDs, parents and attributes ride in args.
func WriteChromeTrace(w io.Writer, spans []SpanRecord) error {
	tids := map[string]int{}
	var trackNames []string
	tidOf := func(track string) int {
		if track == "" {
			track = DefaultTrack
		}
		id, ok := tids[track]
		if !ok {
			id = len(tids) + 1
			tids[track] = id
			trackNames = append(trackNames, track)
		}
		return id
	}

	var events []chromeEvent
	for _, s := range spans {
		tid := tidOf(s.Track)
		ts := units.SecondsToMicros(s.SimStartS)
		dur := units.SecondsToMicros(s.SimDurS())
		args := map[string]string{"id": s.ID}
		if s.Parent != "" {
			args["parent"] = s.Parent
		}
		if s.TraceID != "" {
			args["trace"] = s.TraceID
		}
		if !s.Ended {
			args["unended"] = "true"
		}
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		events = append(events, chromeEvent{
			Name:  s.Name,
			Cat:   "sim",
			Ph:    "X",
			TsUS:  &ts,
			DurUS: &dur,
			PID:   1,
			TID:   tid,
			Args:  args,
		})
	}

	// Metadata first: process name, then one thread_name per track in
	// first-seen order (which span order makes deterministic).
	meta := []chromeEvent{{
		Name: "process_name", Ph: "M", PID: 1, TID: 0,
		Args: map[string]string{"name": "repro"},
	}}
	for _, track := range trackNames {
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tids[track],
			Args: map[string]string{"name": track},
		})
	}

	trace := chromeTrace{TraceEvents: append(meta, events...), DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(trace)
}

// ReadChromeTrace parses Chrome trace-event JSON written by
// WriteChromeTrace back into span records (metadata events are used for
// track names, everything else must be well-formed "X" events). It
// doubles as a structural validator for exported traces.
func ReadChromeTrace(r io.Reader) ([]SpanRecord, error) {
	var trace chromeTrace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&trace); err != nil {
		return nil, fmt.Errorf("obs: parsing chrome trace: %w", err)
	}
	tracks := map[int]string{}
	var spans []SpanRecord
	for i, e := range trace.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				tracks[e.TID] = e.Args["name"]
			}
		case "X":
			if e.TsUS == nil || e.DurUS == nil {
				return nil, fmt.Errorf("obs: chrome event %d (%q) is missing ts or dur", i, e.Name)
			}
			if e.Name == "" {
				return nil, fmt.Errorf("obs: chrome event %d has no name", i)
			}
			s := SpanRecord{
				Name:      e.Name,
				Track:     tracks[e.TID],
				SimStartS: units.MicrosToSeconds(*e.TsUS),
				Ended:     true,
			}
			s.SimEndS = s.SimStartS + units.MicrosToSeconds(*e.DurUS)
			for _, k := range sortedKeys(e.Args) {
				v := e.Args[k]
				switch k {
				case "id":
					s.ID = v
				case "parent":
					s.Parent = v
				case "trace":
					s.TraceID = v
				case "unended":
					s.Ended = false
				default:
					s.Attrs = append(s.Attrs, Attr{Key: k, Value: v})
				}
			}
			if s.ID == "" {
				return nil, fmt.Errorf("obs: chrome event %d (%q) has no span id", i, e.Name)
			}
			spans = append(spans, s)
		default:
			return nil, fmt.Errorf("obs: chrome event %d has unsupported phase %q", i, e.Ph)
		}
	}
	return spans, nil
}

// sortedKeys returns a map's keys in sorted order (JSON round-trips
// lose the original attribute order; sorting keeps output stable).
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteJSONL writes one compact JSON object per line. It is the shared
// line-oriented encoder for span dumps, metric snapshots and fleet
// event logs.
func WriteJSONL[T any](w io.Writer, items []T) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, it := range items {
		if err := enc.Encode(it); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSpansJSONL parses a JSONL span dump written by WriteJSONL.
func ReadSpansJSONL(r io.Reader) ([]SpanRecord, error) {
	var out []SpanRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var s SpanRecord
		if err := json.Unmarshal([]byte(text), &s); err != nil {
			return nil, fmt.Errorf("obs: jsonl line %d: %w", line, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading jsonl: %w", err)
	}
	return out, nil
}

// ReadSpans sniffs the input format — a Chrome trace JSON object or a
// JSONL span dump — and parses accordingly.
func ReadSpans(r io.Reader) ([]SpanRecord, error) {
	br := bufio.NewReader(r)
	for {
		b, err := br.Peek(1)
		if err != nil {
			return nil, fmt.Errorf("obs: empty trace input")
		}
		switch b[0] {
		case ' ', '\t', '\n', '\r':
			if _, err := br.ReadByte(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	head, _ := br.Peek(256)
	if strings.Contains(string(head), "traceEvents") {
		return ReadChromeTrace(br)
	}
	return ReadSpansJSONL(br)
}

// SpanAgg is the per-name aggregate of a trace: how many spans carried
// the name, their total simulated duration, and their self time (total
// minus the time covered by child spans) — the column a bottleneck hunt
// sorts by.
type SpanAgg struct {
	Name      string
	Count     int
	TotalSimS float64
	SelfSimS  float64
}

// AggregateSpans groups spans by name, computing total and self
// simulated time. Self time subtracts each span's direct children,
// clamped at zero so overlapping children cannot drive it negative.
// Results sort by descending self time, then name.
func AggregateSpans(spans []SpanRecord) []SpanAgg {
	childDur := map[string]float64{} // parent ID -> sum of child durations
	for _, s := range spans {
		if s.Parent != "" {
			childDur[s.Parent] += s.SimDurS()
		}
	}
	byName := map[string]*SpanAgg{}
	order := []string{}
	for _, s := range spans {
		a, ok := byName[s.Name]
		if !ok {
			a = &SpanAgg{Name: s.Name}
			byName[s.Name] = a
			order = append(order, s.Name)
		}
		a.Count++
		dur := s.SimDurS()
		a.TotalSimS += dur
		self := dur - childDur[s.ID]
		if self < 0 {
			self = 0
		}
		a.SelfSimS += self
	}
	out := make([]SpanAgg, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfSimS > out[j].SelfSimS {
			return true
		}
		if out[i].SelfSimS < out[j].SelfSimS {
			return false
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// RenderSummary renders the fixed-width text report: top span names by
// self time, then histogram quantiles, then counters and gauges.
// Metrics may be nil for a spans-only summary.
func RenderSummary(spans []SpanRecord, metrics []Metric) string {
	var b strings.Builder

	var makespan float64
	for _, s := range spans {
		if s.SimEndS > makespan {
			makespan = s.SimEndS
		}
	}
	fmt.Fprintf(&b, "trace: %d span(s), makespan %.2fs (simulated)\n", len(spans), makespan)

	aggs := AggregateSpans(spans)
	if len(aggs) > 0 {
		fmt.Fprintf(&b, "\n%-28s %7s %14s %14s %7s\n", "span", "count", "total_sim_s", "self_sim_s", "self%")
		var totalSelf float64
		for _, a := range aggs {
			totalSelf += a.SelfSimS
		}
		for _, a := range aggs {
			pct := 0.0
			if totalSelf > 0 {
				pct = a.SelfSimS / totalSelf * 100
			}
			fmt.Fprintf(&b, "%-28s %7d %14.2f %14.2f %6.1f%%\n", a.Name, a.Count, a.TotalSimS, a.SelfSimS, pct)
		}
	}

	var hists, scalars []Metric
	for _, m := range metrics {
		if m.Type == "histogram" {
			hists = append(hists, m)
		} else {
			scalars = append(scalars, m)
		}
	}
	if len(hists) > 0 {
		fmt.Fprintf(&b, "\n%-36s %8s %12s %12s %12s\n", "histogram", "count", "p50", "p90", "p99")
		for _, m := range hists {
			fmt.Fprintf(&b, "%-36s %8d %12.4g %12.4g %12.4g\n",
				metricLabel(m), m.Count, m.Quantile(0.50), m.Quantile(0.90), m.Quantile(0.99))
		}
	}
	if len(scalars) > 0 {
		fmt.Fprintf(&b, "\n%-36s %-9s %14s\n", "metric", "type", "value")
		for _, m := range scalars {
			fmt.Fprintf(&b, "%-36s %-9s %14.4f\n", metricLabel(m), m.Type, m.Value)
		}
	}
	return b.String()
}

// metricLabel renders "name{k=v,...}" for display.
func metricLabel(m Metric) string {
	if len(m.Labels) == 0 {
		return m.Name
	}
	parts := make([]string, len(m.Labels))
	for i, l := range m.Labels {
		parts[i] = l.Key + "=" + l.Value
	}
	return m.Name + "{" + strings.Join(parts, ",") + "}"
}
