package obs

import (
	"strconv"
	"strings"
	"time"
)

// fold is one row of the fold table: a metric that restates spans or
// events. The recorder folds every ended root before any sink sees it,
// so no sampler or ring thins a metric, and Registry.Fold folds records
// read back from spans.jsonl.
type fold struct {
	// Name is the span read; a trailing '*' matches a name prefix. A
	// counting row also counts the events so named, attached to any span
	// or recorded as roots by Recorder.Event.
	Name   string
	Parent string // if set, only spans whose parent is named Parent (depth < 32)
	If     Attr   // if If.Key is set, only spans whose If.Key reads If.Value ("" when absent)
	// Attr is the attribute folded, skipping spans without it: an integer
	// for a counter, a duration for a histogram. Empty, a counter counts
	// spans and a histogram observes their duration.
	Attr         string
	Metric, Unit string
	Buckets      []float64 // a histogram's bounds, in seconds; nil for a counter
}

// folds is the fold table, by the span names and attributes of the
// packages that record them. A metric no span carries is registered where
// it happens: sched's admission histograms, simnet.refused, core's per-VM
// tp.translate_virtual_s and tp.restore_virtual_s, chaos's harness
// counters and the slo tracker's mirror.
var folds = []fold{
	// core: the transplant roots and the Fig. 3 phase spans.
	{Name: "inplace-tp", Attr: "vms", Metric: "tp.vms_transplanted", Unit: "vms"},
	{Name: "emergency-tp", Attr: "vms", Metric: "tp.vms_transplanted", Unit: "vms"},
	{Name: "emergency-tp", Metric: "tp.emergencies", Unit: "transplants"},
	{Name: "emergency-tp", Attr: "downtime", Metric: "tp.emergency_downtime_s", Unit: "s", Buckets: ExpBuckets(1e-2, 2, 16)},
	{Name: "inplace-tp", If: Attr{"outcome", "rolled-back"}, Metric: "tp.rollbacks", Unit: "transplants"},
	{Name: "inplace-tp", If: Attr{"outcome", "crashed"}, Metric: "tp.crash_abandons", Unit: "transplants"},
	{Name: "emergency-tp", If: Attr{"outcome", "crashed"}, Metric: "tp.emergencies_frozen", Unit: "transplants"},
	{Name: "inplace-tp", If: Attr{"outcome", "lost"}, Attr: "vms", Metric: "tp.vms_lost", Unit: "vms"},
	{Name: "emergency-tp", If: Attr{"outcome", "lost"}, Attr: "vms", Metric: "tp.vms_lost", Unit: "vms"},
	{Name: "recovery:*", Metric: "tp.recoveries", Unit: "recoveries"},
	{Name: "pram-build", Attr: "pages", Metric: "pram.pages_preserved", Unit: "pages"},
	{Name: "translate", Attr: "uisr_bytes", Metric: "tp.uisr_bytes", Unit: "bytes"},
	{Name: "translate", Attr: "metadata_bytes", Metric: "tp.pram_metadata_bytes", Unit: "bytes"},
	{Name: "translate", Attr: "cache_hits", Metric: "tpcache.hits", Unit: "lookups"},
	{Name: "translate", Attr: "cache_misses", Metric: "tpcache.misses", Unit: "lookups"},
	{Name: "translate", Attr: "cache_stale", Metric: "tpcache.stale", Unit: "entries"},
	{Name: "kexec", Attr: "wiped_frames", Metric: "tp.wiped_frames", Unit: "frames"},
	// migration: the per-VM root, its retry events and attempt rollbacks.
	{Name: "migration", Attr: "rounds", Metric: "migration.rounds", Unit: "rounds"},
	{Name: "migration", Attr: "bytes_sent", Metric: "migration.bytes_sent", Unit: "bytes"},
	{Name: "migration", Attr: "downtime", Metric: "migration.downtime_virtual_s", Unit: "s", Buckets: ExpBuckets(1e-3, 2, 16)},
	{Name: "migration.retry", Metric: "migration.retries", Unit: "attempts"},
	{Name: "rollback", Parent: "attempt", Metric: "migration.rollbacks", Unit: "attempts"},
	// simnet: one span per transfer; an aborted one says so.
	{Name: "xfer:*", Metric: "simnet.transfers", Unit: "transfers"},
	{Name: "xfer:*", If: Attr{"aborted", ""}, Attr: "bytes", Metric: "simnet.bytes_moved", Unit: "bytes"},
	{Name: "xfer:*", If: Attr{"aborted", ""}, Metric: "simnet.transfer_virtual_s", Unit: "s", Buckets: ExpBuckets(1e-3, 2, 20)},
	{Name: "xfer:*", If: Attr{"aborted", "true"}, Metric: "simnet.aborts", Unit: "transfers"},
	// cluster: the rolling upgrade's groups and their children.
	{Name: "group-*", Attr: "migrations", Metric: "cluster.migrations", Unit: "migrations"},
	{Name: "group-*", Attr: "inplace_vms", Metric: "cluster.inplace_vms", Unit: "vms"},
	{Name: "migrate:*", Attr: "bytes", Metric: "cluster.bytes_migrated", Unit: "bytes"},
	{Name: "replan:*", Attr: "bytes", Metric: "cluster.bytes_migrated", Unit: "bytes"},
	{Name: "quarantine:*", Metric: "cluster.hosts_quarantined", Unit: "hosts"},
	// fault: every shot of a plan with a recorder.
	{Name: "fault.injected", Metric: "fault.injected", Unit: "faults"},
	// orchestrator: fences, recoveries and the undetected window of a
	// crash, which runs from the crash to its detection.
	{Name: "nova.quarantined", Metric: "nova.hosts_quarantined", Unit: "hosts"},
	{Name: "nova.emergency-recover", If: Attr{"error", ""}, Metric: "nova.emergency_recoveries", Unit: "hosts"},
	{Name: "nova.host-down", Metric: "nova.hosts_crashed", Unit: "hosts"},
	{Name: "nova.host-down", Metric: "reactive.crashes_detected", Unit: "crashes"},
	{Name: "nova.host-down", Metric: "reactive.detect_latency_s", Unit: "s", Buckets: ExpBuckets(1e-3, 2, 12)},
}

// Fold applies the fold table to recs: whole roots, depth-first, as a
// StreamSink is handed them or spans.jsonl holds them.
func (r *Registry) Fold(recs []SpanRecord) {
	if r == nil {
		return
	}
	var names [32]string // names[d] is the latest record at depth d
	for _, rec := range recs {
		parent := ""
		if d := rec.Depth; d < len(names) {
			names[d] = rec.Name
			if d > 0 {
				parent = names[d-1]
			}
		}
		r.foldSpan(rec.Name, parent, rec.End-rec.Start, rec.Attrs, rec.Events)
	}
}

// foldTree folds an ended tree in place, for a recorder with no sink.
func (r *Registry) foldTree(s *Span, parent string) {
	r.foldSpan(s.Name, parent, s.end-s.start, s.attrs, s.events)
	for _, c := range s.children {
		r.foldTree(c, s.Name)
	}
}

// foldSpan applies every row that reads one span or its events.
func (r *Registry) foldSpan(name, parent string, d time.Duration, attrs []Attr, events []Point) {
	for i := range folds {
		f := &folds[i]
		if p, ok := strings.CutSuffix(f.Name, "*"); ok && strings.HasPrefix(name, p) || name == f.Name {
			r.foldRow(f, parent, d, attrs)
		}
		for _, ev := range events {
			if ev.Name == f.Name && f.Attr == "" && f.Buckets == nil {
				r.Counter(f.Metric, f.Unit).Add(1)
			}
		}
	}
}

func (r *Registry) foldRow(f *fold, parent string, d time.Duration, attrs []Attr) {
	v := AttrValue(attrs, f.Attr)
	var err error
	switch {
	case f.Parent != "" && parent != f.Parent, f.If.Key != "" && AttrValue(attrs, f.If.Key) != f.If.Value,
		f.Attr != "" && v == "":
	case f.Buckets == nil:
		n := int64(1)
		if v != "" {
			n, err = strconv.ParseInt(v, 10, 64)
		}
		if err == nil {
			r.Counter(f.Metric, f.Unit).Add(n)
		}
	default:
		if v != "" {
			d, err = time.ParseDuration(v)
		}
		if err == nil {
			r.Histogram(f.Metric, f.Unit, f.Buckets).Observe(d.Seconds())
		}
	}
}

// AttrValue returns the value of attrs' key, or "" when absent.
func AttrValue(attrs []Attr, key string) string {
	for _, a := range attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}
