package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// spanName identifies the layer boundary a span was recorded at.
type spanName uint8

const (
	spSetup spanName = iota
	spCycle
	spSimRun
	spInit
	spTick
	spHandleReq
	spHandleReply
	spSample
	spMembership
	spTruthNew
	spTruthMeasure
	spTruthUpdate
	spPause
	spKill
	spRespawn
	spRemove
	spOps
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spSetup:        "setup",
	spCycle:        "cycle",
	spSimRun:       "simnet.run",
	spInit:         "core.init",
	spTick:         "core.tick",
	spHandleReq:    "core.handle_req",
	spHandleReply:  "core.handle_reply",
	spSample:       "sampling.sample",
	spMembership:   "sampling.membership",
	spTruthNew:     "truth.new",
	spTruthMeasure: "truth.measure",
	spTruthUpdate:  "truth.update",
	spPause:        "host.pause_all",
	spKill:         "host.kill",
	spRespawn:      "host.respawn",
	spRemove:       "dht.remove",
	spOps:          "dht.ops",
}

func (n spanName) String() string { return spanNames[n] }

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch. Parent indexes the enclosing span of the same lane (-1
// at top level); link ties the span to its cycle (simnet, serve) or to its
// gossip exchange (initiator address << 32 | initiator tick number).
type span struct {
	start, end int64
	link       int64
	parent     int32
	name       spanName
}

func (s span) dur() int64 { return s.end - s.start }

// lane is a span buffer written by one goroutine at a time: the main one,
// or one node (simnet shards and livenet hosts never run one node's
// callbacks concurrently). Per-node lanes keep recording lock-free. A nil
// lane records nothing, which is how untraced runs skip every span.
type lane struct {
	epoch time.Time
	spans []span
	open  int32
}

// begin opens a span under the innermost open span of this lane. A
// negative link inherits the parent's link.
func (l *lane) begin(name spanName, link int64) int32 {
	if l == nil {
		return -1
	}
	if link < 0 && l.open >= 0 {
		link = l.spans[l.open].link
	}
	i := int32(len(l.spans))
	l.spans = append(l.spans, span{start: int64(time.Since(l.epoch)), link: link, parent: l.open, name: name})
	l.open = i
	return i
}

// end closes the span begin returned.
func (l *lane) end(i int32) {
	if l == nil {
		return
	}
	s := &l.spans[i]
	s.end = int64(time.Since(l.epoch))
	l.open = s.parent
}

// tracer owns every lane of one traced run. Lane 0 is the main goroutine's.
type tracer struct {
	epoch time.Time
	lanes []*lane
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.newLane()
	return t
}

// top returns the main goroutine's lane; nil on a nil tracer.
func (t *tracer) top() *lane {
	if t == nil {
		return nil
	}
	return t.lanes[0]
}

// newLane registers a lane; nil on a nil tracer. Lanes are created during
// set-up, before any goroutine records into them.
func (t *tracer) newLane() *lane {
	if t == nil {
		return nil
	}
	l := &lane{epoch: t.epoch, open: -1}
	t.lanes = append(t.lanes, l)
	return l
}

// layerTotals is the per-span-name summary of a trace.
type layerTotals struct {
	calls [numSpanNames]int64
	total [numSpanNames]time.Duration
	self  [numSpanNames]time.Duration
}

// summarize computes call counts, total and self time per span name. Self
// time is a span's duration minus the part of it its children cover.
// Children in the same lane nest strictly, so their durations add up.
// Node callbacks run on other lanes inside a simnet.run span of the same
// cycle; with parallel shards they overlap each other, so the run span is
// charged the union of their intervals, not the sum.
func (t *tracer) summarize() layerTotals {
	var out layerTotals
	runs := map[int64]span{}
	for _, s := range t.lanes[0].spans {
		if s.name == spSimRun {
			runs[s.link] = s
		}
	}
	callbacks := map[int64][][2]int64{}
	for _, l := range t.lanes {
		childSum := make([]int64, len(l.spans))
		for _, s := range l.spans {
			if s.parent >= 0 {
				childSum[s.parent] += s.dur()
			}
		}
		for i, s := range l.spans {
			out.calls[s.name]++
			out.total[s.name] += time.Duration(s.dur())
			out.self[s.name] += time.Duration(s.dur() - childSum[i])
			if l != t.lanes[0] && s.parent < 0 {
				if _, ok := runs[s.link]; ok {
					callbacks[s.link] = append(callbacks[s.link], [2]int64{s.start, s.end})
				}
			}
		}
	}
	for link, run := range runs {
		covered := unionWithin(callbacks[link], run.start, run.end)
		out.self[spSimRun] -= time.Duration(covered)
	}
	return out
}

// unionWithin returns the length of the union of ivs clipped to [lo, hi].
func unionWithin(ivs [][2]int64, lo, hi int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// write stores every span as gzip'd CSV (lane,name,start_ns,end_ns,parent,link).
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriterSize(zw, 1<<16)
	fmt.Fprintln(w, "lane,name,start_ns,end_ns,parent,link")
	for li, l := range t.lanes {
		for _, s := range l.spans {
			fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", li, s.name, s.start, s.end, s.parent, s.link)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
