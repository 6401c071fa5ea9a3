package main

import (
	"bufio"
	"context"
	"strconv"
	"strings"
	"time"

	"veriopt/internal/dataset"
)

// counterMetrics reads the per-layer metrics that are counts the
// program keeps itself. Call it before the system stops: the cluster
// section scrapes the live replicas.
func counterMetrics(sys *system, p phase) map[string]float64 {
	m := map[string]float64{}
	ops, kop := float64(p.ops), float64(p.ops)/1000

	fs := sys.front.Engine.Stats()
	if q := fs.Queries - sys.frontBefore.Queries; q > 0 {
		m["vcache.hit_frac"] = float64(fs.Hits-sys.frontBefore.Hits) / float64(q)
	}
	m["vcache.promotions_per_kop"] = float64(fs.Promotions-sys.frontBefore.Promotions) / kop
	m["vcache.demotions_per_kop"] = float64(fs.Demotions-sys.frontBefore.Demotions) / kop

	var runs, conflicts uint64
	for _, s := range sys.solvers {
		cs := s.Engine.Stats()
		runs += cs.Misses
		conflicts += cs.SolverConflicts
	}
	m["oracle.solver_runs"] = float64(runs)
	m["sat.conflicts_per_op"] = float64(conflicts) / ops

	if sys.store != nil {
		if ss := sys.store.Stats(); ss.Entries > 0 {
			m["vstore.bytes_per_record"] = float64(ss.LiveBytes) / float64(ss.Entries)
		}
	}
	m["vstore.open_replay_ms"] = ms(sys.replay)
	if sys.shed != nil {
		m["server.shed_frac"] = float64(sys.shed()) / ops
	}
	if sys.coord != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		fam := parseExposition(sys.coord.MetricsText(ctx))
		cancel()
		m["cluster.hedges_per_kop"] = sum(fam["veriopt_cluster_hedges_total"]) / kop
		m["cluster.retries_per_kop"] = sum(fam["veriopt_cluster_retries_total"]) / kop
		m["cluster.coalesced_per_kop"] = sum(fam["veriopt_cluster_coalesced_total"]) / kop
		if req := fam["veriopt_cluster_requests_total"]; len(req) == 2 && req[0]+req[1] > 0 {
			d := req[0] - req[1]
			if d < 0 {
				d = -d
			}
			m["cluster.replica_imbalance"] = d / (req[0] + req[1])
		}
	}
	if sys.searches != nil {
		var q, st int
		for _, s := range sys.searches {
			q += s.queries
			st += s.states
		}
		m["seqopt.queries_per_search"] = float64(q) / ops
		m["seqopt.states_per_search"] = float64(st) / ops
	}
	return m
}

// parseExposition reads Prometheus text into family name → sample
// values in order of appearance, labels dropped.
func parseExposition(text string) map[string][]float64 {
	out := map[string][]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name, _, _ := strings.Cut(line[:i], "{")
		out[name] = append(out[name], v)
	}
	return out
}

// spanMetrics adds the per-layer metrics that come from the linked
// trace. A layer's self_us is its total self time over the op count, so
// the self_us rows of one workload add up to the mean op, which a few
// slow ops dominate; self_p50_us is the median span's. get_us, put_us and
// verify_us are per call.
func spanMetrics(m map[string]float64, spans []span, sys *system, queueWaitsUs []float64) {
	layers := byLayer(spans)
	op := layers[spanOp]
	ops := float64(len(op.span))
	if ops == 0 {
		return
	}
	perOp := func(names ...string) float64 {
		t := 0.0
		for _, n := range names {
			t += sum(layers[n].self)
		}
		return t / ops
	}
	if sys.searches != nil {
		m["seqopt.self_us"] = perOp(spanOp)
		m["seqopt.oracle_share"] = sum(layers[spanOracle].span) / sum(op.span)
	} else {
		m["server.self_us"] = perOp(spanOp)
		m["server.self_p50_us"] = median(op.self)
		m["server.queue_wait_us"] = mean(queueWaitsUs)
	}
	m["oracle.self_us"] = perOp(spanOracle, spanReplica)
	m["oracle.self_p50_us"] = median(layers[spanOracle].self)
	m["cluster.hop_self_us"] = perOp(spanCluster)
	m["vstore.get_us"] = mean(layers[spanGet].span)
	m["vstore.put_us"] = mean(layers[spanPut].span)
	m["alive.verify_us"] = mean(layers[spanAlive].span)
	m["alive.verify_p50_us"] = median(layers[spanAlive].span)

	total := 0.0
	for _, l := range layers {
		total += sum(l.self)
	}
	m["trace.self_sum_frac"] = total / sum(op.span)

	family := map[string]string{} // source function name → dataset scenario
	for _, r := range sys.requests {
		family[r.name] = r.family
	}
	for _, in := range sys.inputs {
		family[in.name] = in.family
	}
	byFamily := map[string][]float64{}
	for i := range spans {
		if s := &spans[i]; s.Name == spanAlive && s.Op >= 0 {
			f := family[s.Key]
			byFamily[f] = append(byFamily[f], float64(s.End-s.Start)/1e3)
		}
	}
	for _, f := range []string{dataset.ScenarioScalar, dataset.ScenarioControlFlow, dataset.ScenarioLoop,
		dataset.ScenarioWideInt, dataset.ScenarioAdversarial} {
		m["alive.verify_us."+f] = mean(byFamily[f])
	}
}
