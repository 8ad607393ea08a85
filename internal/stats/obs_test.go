package stats

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"flick/internal/sim"
)

func sampleReport(base uint64) sim.Report {
	env := sim.NewEnv()
	env.SetTraceCap(8)
	env.Metrics().Counter("a.count").Add(base)
	env.Metrics().Counter("z.count").Add(base * 2)
	env.Metrics().Histogram("h").Observe(base)
	env.Spawn("p", func(p *sim.Proc) {
		p.Sleep(sim.Duration(base) * sim.Nanosecond)
		env.Emit(sim.Event{Comp: "t", Kind: sim.KindDMA, Size: int64(base)})
	})
	env.Run()
	return env.Report()
}

// render delivers the same two reports to the collector's jobs in the
// given order and returns both serializations.
func render(t *testing.T, order []int) (string, string) {
	t.Helper()
	o := NewObs(8)
	obs := []*sim.Observer{o.Job("job-a"), o.Job("job-b")}
	reports := []sim.Report{sampleReport(3), sampleReport(5)}
	for _, i := range order {
		obs[i].OnReport(reports[i])
	}
	var m, c bytes.Buffer
	if err := o.WriteMetricsJSON(&m); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteChromeTrace(&c); err != nil {
		t.Fatal(err)
	}
	return m.String(), c.String()
}

func TestObsDeterministicAcrossDeliveryOrder(t *testing.T) {
	m1, c1 := render(t, []int{0, 1})
	m2, c2 := render(t, []int{1, 0})
	if m1 != m2 {
		t.Errorf("metrics JSON depends on delivery order:\n%s\nvs\n%s", m1, m2)
	}
	if c1 != c2 {
		t.Errorf("chrome trace depends on delivery order:\n%s\nvs\n%s", c1, c2)
	}
}

func TestObsMergesCounters(t *testing.T) {
	o := NewObs(0)
	a, b := o.Job("a"), o.Job("b")
	a.OnReport(sampleReport(3))
	b.OnReport(sampleReport(5))
	m := o.Merged()
	if got := m.Counter("a.count"); got != 8 {
		t.Errorf("a.count = %d, want 8", got)
	}
	if got := m.Counter("z.count"); got != 16 {
		t.Errorf("z.count = %d, want 16", got)
	}
	if len(m.Histograms) != 1 || m.Histograms[0].Count != 2 || m.Histograms[0].Sum != 8 {
		t.Errorf("merged histogram = %+v", m.Histograms)
	}
	if o.Jobs() != 2 {
		t.Errorf("Jobs = %d, want 2", o.Jobs())
	}
}

func TestObsMetricsJSONParsesWithStableKeys(t *testing.T) {
	o := NewObs(0)
	o.Job("only").OnReport(sampleReport(1))
	var buf bytes.Buffer
	if err := o.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Jobs     int               `json:"jobs"`
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("metrics JSON invalid: %v\n%s", err, buf.String())
	}
	if parsed.Jobs != 1 || parsed.Counters["a.count"] != 1 {
		t.Errorf("parsed = %+v", parsed)
	}
	// Keys must appear in sorted order for byte-stability.
	s := buf.String()
	if strings.Index(s, `"a.count"`) > strings.Index(s, `"z.count"`) {
		t.Errorf("counter keys not sorted:\n%s", s)
	}
}

func TestObsChromeTraceParses(t *testing.T) {
	o := NewObs(8)
	o.Job("job-x").OnReport(sampleReport(7))
	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			PID  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome trace invalid: %v\n%s", err, buf.String())
	}
	if len(parsed.TraceEvents) != 2 {
		t.Fatalf("events = %d, want metadata + 1 instant", len(parsed.TraceEvents))
	}
	if parsed.TraceEvents[0].Ph != "M" || parsed.TraceEvents[1].Name != "dma" {
		t.Errorf("events = %+v", parsed.TraceEvents)
	}
	if got := parsed.TraceEvents[1].TS; got != 0.007 { // 7ns in µs
		t.Errorf("ts = %v, want 0.007", got)
	}
}

func TestNilObsIsInert(t *testing.T) {
	var o *Obs
	if obs := o.Job("x"); obs != nil {
		t.Error("nil Obs handed out a live observer")
	}
	if o.Jobs() != 0 {
		t.Error("nil Obs has jobs")
	}
	if len(o.Merged().Counters) != 0 {
		t.Error("nil Obs merged counters")
	}
}
