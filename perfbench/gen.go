package main

import (
	"math/rand"
	"sort"
	"time"

	"gesturecep/internal/kinect"
)

// schedEntry is one send of the open-loop generator: frame `frame` of
// session `session`, due `due` after the run's start.
type schedEntry struct {
	due     time.Duration
	session int32
	frame   int32
}

// loadPlan is the open-loop schedule: every session sends one frame per
// Kinect period, starting at its own phase within the first period, and
// each session belongs to exactly one sender.
type loadPlan struct {
	phase   []time.Duration // per session, in [0, kinect.FramePeriod)
	recOf   []int           // per session: the recording it replays
	senders [][]schedEntry  // per sender, sorted by due time
}

// planLoad spreads sessions' phases over one frame period and deals the
// sessions round-robin to senders. All of it is derived from seed.
func planLoad(seed int64, sessions, recordings, frames, senders int) *loadPlan {
	rng := rand.New(rand.NewSource(seed))
	p := &loadPlan{
		phase:   make([]time.Duration, sessions),
		recOf:   make([]int, sessions),
		senders: make([][]schedEntry, senders),
	}
	for s := range p.phase {
		p.phase[s] = time.Duration(rng.Int63n(int64(kinect.FramePeriod)))
		p.recOf[s] = s % recordings
	}
	for k := range p.senders {
		var mine []int32
		for s := k; s < sessions; s += senders {
			mine = append(mine, int32(s))
		}
		sort.Slice(mine, func(i, j int) bool { return p.phase[mine[i]] < p.phase[mine[j]] })
		entries := make([]schedEntry, 0, len(mine)*frames)
		for f := 0; f < frames; f++ {
			for _, s := range mine {
				entries = append(entries, schedEntry{due: p.due(int(s), f), session: s, frame: int32(f)})
			}
		}
		p.senders[k] = entries
	}
	return p
}

// due is when frame f of session s must be sent, relative to the start.
func (p *loadPlan) due(s, f int) time.Duration {
	return p.phase[s] + time.Duration(f)*kinect.FramePeriod
}

// sendLoop walks one sender's schedule from t0. It sleeps only while it is
// ahead of schedule and never waits on replies: a slow send delays the
// sends behind it, and that lateness is charged to them, because every
// latency is counted from the due time. onSent gets each entry with the
// time its send started and the send's error.
func sendLoop(entries []schedEntry, t0 time.Time, send func(schedEntry) error, onSent func(e schedEntry, start, end time.Time, err error)) {
	for _, e := range entries {
		if wait := time.Until(t0.Add(e.due)); wait > 0 {
			time.Sleep(wait)
		}
		start := time.Now()
		err := send(e)
		onSent(e, start, time.Now(), err)
	}
}

// frameSpanID is the span id of a frame's send, derived from the request
// so a detection's arrival can name the span of the frame that completed
// it without a lookup table.
func frameSpanID(session, frame, frames int) uint64 {
	return 1 + uint64(session)*uint64(frames) + uint64(frame)
}

// reqID is the request id of one frame of one session.
func reqID(session, frame int) uint64 { return uint64(session)<<32 | uint64(frame) }
