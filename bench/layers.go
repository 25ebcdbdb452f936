package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ufsclust/internal/telemetry"
)

// metricDef is one line of the metric catalogue; BENCHMARK.json is
// generated from it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs are the metrics a change is accepted or rejected on. The
// bound is the share of the parent's median a metric may worsen by. It
// has to cover the spread between seeds as well as host noise, because
// the driver varies the seed: each is about three times the widest
// interquartile spread seen over ten seeds at -seconds 10 (README.md,
// "Baseline"). At one seed every virt_* metric repeats exactly, which
// -selfcheck asserts.
var endToEndDefs = []metricDef{
	{"virt_kbs", "KB/s", "higher", 0.04},
	{"virt_cpu_ms_per_mb", "ms/MB", "lower", 0.01},
	{"virt_call_tail_us", "us", "lower", 0.06},
	{"host_us_per_call", "us", "lower", 0.15},
	{"host_allocs_per_call", "count", "lower", 0.05},
	{"host_alloc_bytes_per_call", "B", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// cpuCategories is the paper's Figure 12 split, in cpu.Category names.
var cpuCategories = []string{"syscall", "copy", "map", "fault", "getpage", "putpage", "bmap", "alloc",
	"pagecache", "driver", "interrupt", "pagedaemon", "misc"}

// hostShareLayers is hostLayers plus the three buckets that are not
// model packages.
var hostShareLayers = append(append([]string(nil), hostLayers...), "runtime", "bench", "other")

func perLayerDefs() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	higher := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{lower("call.p50_us", "us"), lower("call.p99_us", "us"), lower("cpu.busy_frac", "frac")}
	for _, c := range cpuCategories {
		defs = append(defs, lower("cpu."+c+"_ms_per_mb", "ms/MB"))
	}
	defs = append(defs,
		lower("disk.busy_frac", "frac"), lower("disk.seek_frac", "frac"), lower("disk.rot_frac", "frac"),
		higher("disk.xfer_frac", "frac"), lower("disk.bus_frac", "frac"),
		higher("disk.trackbuf_hit_ratio", "ratio"), lower("disk.bytes_per_user_byte", "ratio"),
		lower("disk.service_p50_us", "us"), lower("disk.service_p99_us", "us"),

		lower("driver.ios_per_mb", "1/MB"), higher("driver.mean_xfer_kb", "KB"),
		lower("driver.queue_wait_ms_per_io", "ms"), lower("driver.qdepth_mean", "count"),
		higher("driver.coalesced_ratio", "ratio"), lower("driver.retries", "count"),
		lower("driver.latency_p50_us", "us"), lower("driver.latency_p99_us", "us"),

		higher("vm.hit_ratio", "ratio"), lower("vm.pageouts_per_mb", "1/MB"), lower("vm.scans_per_mb", "1/MB"),
		higher("vm.free_behind_per_mb", "1/MB"), lower("vm.mem_waits", "count"),

		lower("core.getpages_per_mb", "1/MB"), higher("core.cache_hit_ratio", "ratio"),
		lower("core.sync_reads_per_mb", "1/MB"), lower("core.async_reads_per_mb", "1/MB"),
		higher("core.blocks_per_io", "count"), lower("core.write_stalls", "count"), higher("core.lies_per_push", "count"),

		lower("prefetch.triggers", "count"), higher("prefetch.useful_ratio", "ratio"),
		lower("prefetch.waste_blocks", "count"), higher("prefetch.window_mean_blocks", "count"),
		lower("prefetch.collapses", "count"), lower("prefetch.clamps", "count"),

		lower("ufs.bmap_calls_per_mb", "1/MB"), lower("ufs.alloc_calls_per_mb", "1/MB"),
		higher("ufs.bc_hit_ratio", "ratio"), lower("ufs.sync_meta_writes_per_op", "count"), lower("ufs.frag_allocs", "count"),

		lower("vol.sub_requests_per_io", "count"), higher("vol.full_stripe_ratio", "ratio"),
		lower("vol.parity_rmw_rows", "count"), lower("vol.member_busy_skew", "ratio"),

		lower("wal.commits_per_op", "count"), lower("wal.commit_sectors_per_op", "count"),
		lower("wal.checkpoints", "count"), lower("wal.checkpoint_blocks_per_op", "count"),
		lower("wal.overflow_commits", "count"),
	)
	for _, l := range hostShareLayers {
		defs = append(defs, lower(l+".host_share", "frac"))
	}
	for _, rung := range ladderRungs {
		defs = append(defs,
			higher("ladder."+rung+".virt_kbs", "KB/s"),
			lower("ladder."+rung+".virt_cpu_ms_per_mb", "ms/MB"),
			lower("ladder."+rung+".host_us_per_call", "us"))
	}
	return append(defs,
		lower("paper.err_pct", "%"), lower("trace.overhead_frac", "frac"),
		lower("host.heap_inuse_mb", "MB"), higher("profile.samples", "count"))
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func histMean(h telemetry.HistSnapshot) float64 { return div(float64(h.Sum), float64(h.N)) }

// perLayer computes every per-layer metric of one workload from the
// traced pass (snapshot delta, bus events, CPU profiles), the untraced
// reps run beside it (for the tracing overhead) and the ladder.
func perLayer(untraced, traced *pass, ladder map[string]rungResult) (map[string]float64, error) {
	v := traced.virt()
	d := v.Delta
	get := func(name string) float64 { return float64(d.Get(name)) }
	mb := mbOf(v)
	el := float64(v.Elapsed)
	ops := float64(v.Ops)
	// Plain counts are per machine: the mean over the pooled ones.
	count := func(name string) float64 { return get(name) / float64(len(traced.refs)) }
	m := map[string]float64{}

	// Per-call virtual latency percentiles. Informational: they sit on a
	// few discrete values (see virtEndToEnd).
	lat := sortedLatUs(v)
	m["call.p50_us"] = percentile(lat, 0.50)
	m["call.p99_us"] = percentile(lat, 0.99)

	// CPU: Figure 12's split of system time, which must account for all
	// of virt_cpu_ms_per_mb.
	m["cpu.busy_frac"] = get("cpu.system_ns") / el
	var split float64
	for _, c := range cpuCategories {
		ms := get("cpu."+c+".ns") / 1e6 / mb
		m["cpu."+c+"_ms_per_mb"] = ms
		split += ms
	}
	if total := cpuMsPerMB(v); math.Abs(split-total) > 0.005*total {
		return nil, fmt.Errorf("%s: cpu split sums to %.4f ms/MB, system time is %.4f", traced.w.name, split, total)
	}

	// Disk: fractions of virtual elapsed. CPU and disk overlap, and a
	// volume sums its members, so these are not shares of one whole.
	m["disk.busy_frac"] = get("disk.busy_time_ns") / el
	m["disk.seek_frac"] = get("disk.seek_time_ns") / el
	m["disk.rot_frac"] = get("disk.rot_wait_ns") / el
	m["disk.xfer_frac"] = get("disk.xfer_time_ns") / el
	m["disk.bus_frac"] = get("disk.bus_time_ns") / el
	m["disk.trackbuf_hit_ratio"] = div(get("disk.buf_hits"), get("disk.buf_hits")+get("disk.buf_misses"))
	m["disk.bytes_per_user_byte"] = (get("disk.sectors_read") + get("disk.sectors_written")) * 512 / float64(v.Bytes)
	var latency, service []float64
	for _, r := range traced.reps {
		if r.rec != nil { // the last cycle's
			l, s := r.rec.deviceTimes()
			latency, service = append(latency, l...), append(service, s...)
		}
	}
	sort.Float64s(latency)
	sort.Float64s(service)
	m["disk.service_p50_us"] = percentile(service, 0.50)
	m["disk.service_p99_us"] = percentile(service, 0.99)

	issued := get("driver.issued")
	m["driver.ios_per_mb"] = issued / mb
	m["driver.mean_xfer_kb"] = histMean(d.Hist("driver.xfer_sectors")) * 512 / 1024
	m["driver.queue_wait_ms_per_io"] = div(get("driver.queue_wait_ns")/1e6, issued)
	m["driver.qdepth_mean"] = histMean(d.Hist("driver.qdepth"))
	m["driver.coalesced_ratio"] = div(get("driver.coalesced"), get("driver.queued"))
	m["driver.retries"] = count("driver.retries")
	m["driver.latency_p50_us"] = percentile(latency, 0.50)
	m["driver.latency_p99_us"] = percentile(latency, 0.99)

	m["vm.hit_ratio"] = div(get("vm.hits"), get("vm.lookups"))
	m["vm.pageouts_per_mb"] = get("vm.pageouts") / mb
	m["vm.scans_per_mb"] = get("vm.scans") / mb
	m["vm.free_behind_per_mb"] = get("vm.free_behind") / mb
	m["vm.mem_waits"] = count("vm.mem_waits")

	ios := get("core.sync_reads") + get("core.async_reads") + get("core.write_ios")
	m["core.getpages_per_mb"] = get("core.getpages") / mb
	m["core.cache_hit_ratio"] = div(get("core.cache_hits"), get("core.getpages"))
	m["core.sync_reads_per_mb"] = get("core.sync_reads") / mb
	m["core.async_reads_per_mb"] = get("core.async_reads") / mb
	m["core.blocks_per_io"] = div(get("core.read_blocks")+get("core.write_blocks"), ios)
	m["core.write_stalls"] = count("core.write_stalls")
	m["core.lies_per_push"] = div(get("core.lies"), get("core.pushes"))

	m["prefetch.triggers"] = count("core.ra_triggers")
	m["prefetch.useful_ratio"] = div(get("core.ra_hits"), get("core.ra_hits")+get("vm.ra_waste"))
	m["prefetch.waste_blocks"] = count("vm.ra_waste")
	m["prefetch.window_mean_blocks"] = histMean(d.Hist("core.ra_window"))
	m["prefetch.collapses"] = count("core.ra_collapses")
	m["prefetch.clamps"] = count("core.ra_clamp_mem") + count("core.ra_clamp_sem")

	m["ufs.bmap_calls_per_mb"] = get("fs.bmap_calls") / mb
	m["ufs.alloc_calls_per_mb"] = get("fs.alloc_calls") / mb
	m["ufs.bc_hit_ratio"] = div(get("fs.bc_hits"), get("fs.bc_hits")+get("fs.bc_misses"))
	m["ufs.sync_meta_writes_per_op"] = get("fs.sync_meta_writes") / ops
	m["ufs.frag_allocs"] = count("fs.frag_allocs")

	// Volume and journal counters exist only on machines that have the
	// layer; elsewhere every one of these reads 0.
	m["vol.sub_requests_per_io"] = div(get("vol.sub_requests"), issued)
	m["vol.full_stripe_ratio"] = div(get("vol.full_stripe_writes"), get("vol.full_stripe_writes")+get("vol.parity_rmw_rows"))
	m["vol.parity_rmw_rows"] = count("vol.parity_rmw_rows")
	var busyMax, busySum, members float64
	for _, e := range d.Entries {
		if strings.HasPrefix(e.Name, "vol.sd") && strings.HasSuffix(e.Name, ".busy_time_ns") {
			busyMax = math.Max(busyMax, float64(e.Value))
			busySum += float64(e.Value)
			members++
		}
	}
	m["vol.member_busy_skew"] = div(busyMax*members, busySum)
	m["wal.commits_per_op"] = get("wal.commits") / ops
	m["wal.commit_sectors_per_op"] = get("wal.commit_sectors") / ops
	m["wal.checkpoints"] = count("wal.checkpoints")
	m["wal.checkpoint_blocks_per_op"] = get("wal.checkpoint_blocks") / ops
	m["wal.overflow_commits"] = count("wal.overflow_commits")

	// Host self time by layer, from the leaf function of every CPU
	// profile sample taken during the measured phases.
	samples := map[string]int64{}
	for _, prof := range traced.profiles {
		if err := addProfile(samples, prof); err != nil {
			return nil, err
		}
	}
	var total int64
	for _, n := range samples {
		total += n
	}
	var shares float64
	for _, l := range hostShareLayers {
		share := div(float64(samples[l]), float64(total))
		m[l+".host_share"] = share
		shares += share
	}
	if total > 0 && math.Abs(shares-1) > 0.01 {
		return nil, fmt.Errorf("%s: host shares sum to %.4f", traced.w.name, shares)
	}
	m["profile.samples"] = float64(total)

	for rung, res := range ladder {
		m["ladder."+rung+".virt_kbs"] = res.virtKBs
		m["ladder."+rung+".virt_cpu_ms_per_mb"] = res.virtCPUMsPerMB
		m["ladder."+rung+".host_us_per_call"] = res.hostUsPerCall
	}

	// Informational: distance from the paper's Figure 10 cell (0 where
	// it has none), what tracing costs, and the simulator's footprint.
	m["paper.err_pct"] = 0
	if paper := traced.w.paperKBs; paper > 0 {
		m["paper.err_pct"] = math.Abs(kbs(v)-paper) / paper * 100
	}
	m["trace.overhead_frac"] = traced.hostSpread()["host_us_per_call"].Value/untraced.hostSpread()["host_us_per_call"].Value - 1
	var heap float64
	for _, ps := range []*pass{untraced, traced} {
		for _, r := range ps.reps {
			heap = math.Max(heap, float64(r.heapInuse)/(1<<20))
		}
	}
	m["host.heap_inuse_mb"] = heap
	return m, nil
}
