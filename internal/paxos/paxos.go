// Package paxos implements single-decree Paxos (Lamport, "The Part-Time
// Parliament", TOCS 1998) over the asynchronous simulator, as the
// deterministic baseline the paper's introduction contrasts with randomized
// agreement:
//
//	"A common approach for tolerating this obstacle [FLP] in practice is to
//	use an algorithm that terminates as long as worst-case scheduling does
//	not occur indefinitely. This is a property achieved by the well-known
//	Paxos algorithm."
//
// Every processor plays proposer, acceptor, and learner. Proposers listed in
// Params.Proposers start proposing their input bit; ballots are
// round*n + id, so they are unique and totally ordered. A proposer that is
// rejected (NACK) retries with a ballot above everything it has seen — the
// retry path that dueling-proposer schedules exploit to livelock the
// protocol forever, demonstrating that Paxos achieves safety always but
// termination only under benign scheduling (experiment E11 measures both
// sides).
//
// Safety (agreement and validity) holds unconditionally with t < n/2
// crashes. A chosen value is flooded with DECIDED messages so every live
// processor learns it.
package paxos

import (
	"fmt"
	"strconv"
	"strings"

	"asyncagree/internal/sim"
)

// MsgKind enumerates the Paxos wire message types.
type MsgKind uint8

// The six single-decree Paxos message kinds.
const (
	// MsgPrepare is phase 1a.
	MsgPrepare MsgKind = iota + 1
	// MsgPromise is phase 1b: a promise not to accept ballots below B,
	// carrying the highest accepted proposal so far (AcceptedB/AcceptedV,
	// valid when Has).
	MsgPromise
	// MsgAccept is phase 2a, proposing V at ballot B.
	MsgAccept
	// MsgAccepted is phase 2b.
	MsgAccepted
	// MsgNack rejects a stale ballot B, reporting the ballot Promised
	// instead.
	MsgNack
	// MsgDecided floods a chosen value V.
	MsgDecided
)

// Msg is the single pooled wire payload: one box type for all six message
// kinds, recycled through the sending processor's free list via the
// sim.PayloadReclaimer hook (the same discipline PR 6 established for
// Bracha's *rbc.Msg). A box is written only by its creator inside its own
// Send/Deliver step and is read-only while in flight, so sharing one box
// across the n copies of a broadcast is safe. Receivers must copy out any
// field they need beyond the Deliver call: the box returns to its owner's
// pool when the window's batch is reclaimed.
type Msg struct {
	Kind      MsgKind
	B         int     // ballot (Prepare/Promise/Accept/Accepted/Nack)
	V         sim.Bit // value (Accept/Accepted/Decided)
	AcceptedB int     // Promise: highest accepted ballot, valid when Has
	AcceptedV sim.Bit // Promise: its value
	Has       bool    // Promise: some proposal was accepted
	Promised  int     // Nack: the ballot promised instead
}

// promiseRec is the proposer-side record of one acceptor's Promise: the
// fields copied out of the (pooled, transient) *Msg box at delivery time.
type promiseRec struct {
	acceptedB int
	acceptedV sim.Bit
	has       bool
}

// Params configures a Paxos system.
type Params struct {
	// N is the processor count; a majority (floor(n/2)+1) forms a quorum.
	N int
	// Proposers lists the processors that actively propose. One proposer
	// gives guaranteed termination under fair scheduling; two or more admit
	// dueling livelock under adversarial scheduling.
	Proposers []sim.ProcID
}

// Proc is one Paxos processor. It implements sim.Process.
type Proc struct {
	id    sim.ProcID
	n     int
	input sim.Bit

	out     sim.Bit
	decided bool

	proposer bool

	// Acceptor state.
	promisedB int
	acceptedB int
	acceptedV sim.Bit
	hasAcc    bool

	// Proposer state.
	round    int
	ballot   int
	promises map[sim.ProcID]promiseRec
	accepts  map[sim.ProcID]bool
	phase    int // 0 idle, 1 preparing, 2 accepting
	propV    sim.Bit
	maxSeenB int

	outbox []sim.Message
	// boxPool is the free list of payload boxes this processor owns; boxes
	// cycle outbox -> buffer -> (window reclaim | recycle sweep) -> here.
	boxPool []*Msg
}

var (
	_ sim.Process          = (*Proc)(nil)
	_ sim.PayloadReclaimer = (*Proc)(nil)
)

// New constructs a Paxos processor.
func New(id sim.ProcID, p Params, input sim.Bit) (*Proc, error) {
	if p.N <= 0 {
		return nil, fmt.Errorf("paxos: n = %d", p.N)
	}
	proc := &Proc{id: id, n: p.N, input: input, promisedB: -1, acceptedB: -1, maxSeenB: -1}
	for _, prop := range p.Proposers {
		if prop == id {
			proc.proposer = true
		}
	}
	if proc.proposer {
		proc.startRound(1)
	}
	return proc, nil
}

// NewFactory returns a sim.Config-compatible constructor. Like the other
// factories it validates eagerly, so a bad configuration fails at wiring
// time rather than mid-trial inside the first process constructor.
func NewFactory(p Params) func(sim.ProcID, sim.Bit) sim.Process {
	if p.N <= 0 {
		panic(fmt.Sprintf("paxos: invalid parameters n=%d (need n > 0)", p.N))
	}
	return func(id sim.ProcID, input sim.Bit) sim.Process {
		proc, err := New(id, p, input)
		if err != nil {
			panic("paxos: " + err.Error()) // unreachable: n validated above
		}
		return proc
	}
}

// ID implements sim.Process.
func (p *Proc) ID() sim.ProcID { return p.id }

// Input implements sim.Process.
func (p *Proc) Input() sim.Bit { return p.input }

// Output implements sim.Process.
func (p *Proc) Output() (sim.Bit, bool) { return p.out, p.decided }

// PromisedBallot exposes the acceptor's promise (full-information
// schedulers use it to time dueling deliveries).
func (p *Proc) PromisedBallot() int { return p.promisedB }

// Ballot returns the proposer's current ballot, or -1 for non-proposers.
func (p *Proc) Ballot() int {
	if !p.proposer {
		return -1
	}
	return p.ballot
}

func (p *Proc) quorum() int { return p.n/2 + 1 }

// startRound begins phase 1 with ballot round*n + id. The per-round quorum
// maps are cleared in place rather than reallocated, so dueling-proposer
// retries (and recycled trials) reuse their buckets.
func (p *Proc) startRound(round int) {
	p.round = round
	p.ballot = round*p.n + int(p.id)
	if p.promises == nil {
		p.promises = make(map[sim.ProcID]promiseRec, p.n)
		p.accepts = make(map[sim.ProcID]bool, p.n)
	} else {
		clear(p.promises)
		clear(p.accepts)
	}
	p.phase = 1
	m := p.msg(MsgPrepare)
	m.B = p.ballot
	p.broadcast(m)
}

// msg pops a payload box off the free list (or allocates on a cold pool),
// zeroed except for its kind. Callers fill the kind's fields before the box
// enters the outbox; after that it is read-only until reclaimed.
func (p *Proc) msg(k MsgKind) *Msg {
	if n := len(p.boxPool); n > 0 {
		b := p.boxPool[n-1]
		p.boxPool = p.boxPool[:n-1]
		*b = Msg{Kind: k}
		return b
	}
	return &Msg{Kind: k}
}

// ReclaimPayload implements sim.PayloadReclaimer: the window pipeline hands
// back each payload box this processor sent once the window's batch is dead
// (delivered or dropped), and it returns to the free list for reuse.
func (p *Proc) ReclaimPayload(payload any) {
	if b, ok := payload.(*Msg); ok {
		p.boxPool = append(p.boxPool, b)
	}
}

// reclaimOutbox sweeps boxes stranded in an unsent outbox (e.g. responses
// enqueued in a trial's final window) back to the free list, deduplicating
// the shared box of a broadcast's consecutive copies.
func (p *Proc) reclaimOutbox() {
	var last any
	for i := range p.outbox {
		pl := p.outbox[i].Payload
		if pl == last {
			continue
		}
		last = pl
		if b, ok := pl.(*Msg); ok {
			p.boxPool = append(p.boxPool, b)
		}
	}
	p.outbox = p.outbox[:0]
}

func (p *Proc) broadcast(payload any) {
	for q := 0; q < p.n; q++ {
		p.outbox = append(p.outbox, sim.Message{From: p.id, To: sim.ProcID(q), Payload: payload})
	}
}

func (p *Proc) sendTo(q sim.ProcID, payload any) {
	p.outbox = append(p.outbox, sim.Message{From: p.id, To: q, Payload: payload})
}

// Send implements sim.Process. The returned slice is valid only until the
// next Deliver/Reset (the outbox capacity is recycled), per the sim.Process
// contract.
func (p *Proc) Send() []sim.Message {
	out := p.outbox
	p.outbox = p.outbox[:0]
	return out
}

// Deliver implements sim.Process. Fields needed past this call are copied
// out of the pooled box (promiseRec); the box itself is never retained.
func (p *Proc) Deliver(m sim.Message, _ sim.RandSource) {
	msg, ok := m.Payload.(*Msg)
	if !ok {
		return
	}
	switch msg.Kind {
	case MsgPrepare:
		p.trackBallot(msg.B)
		if msg.B > p.promisedB {
			p.promisedB = msg.B
			r := p.msg(MsgPromise)
			r.B, r.AcceptedB, r.AcceptedV, r.Has = msg.B, p.acceptedB, p.acceptedV, p.hasAcc
			p.sendTo(m.From, r)
		} else {
			p.nack(m.From, msg.B)
		}
	case MsgAccept:
		p.trackBallot(msg.B)
		if msg.B >= p.promisedB {
			p.promisedB = msg.B
			p.acceptedB = msg.B
			p.acceptedV = msg.V
			p.hasAcc = true
			r := p.msg(MsgAccepted)
			r.B, r.V = msg.B, msg.V
			p.sendTo(m.From, r)
		} else {
			p.nack(m.From, msg.B)
		}
	case MsgPromise:
		p.onPromise(m.From, msg)
	case MsgAccepted:
		p.onAccepted(m.From, msg)
	case MsgNack:
		p.onNack(msg)
	case MsgDecided:
		if !p.decided {
			p.out, p.decided = msg.V, true
		}
	}
}

// nack rejects ballot b, reporting the ballot promised instead.
func (p *Proc) nack(to sim.ProcID, b int) {
	r := p.msg(MsgNack)
	r.B, r.Promised = b, p.promisedB
	p.sendTo(to, r)
}

func (p *Proc) trackBallot(b int) {
	if b > p.maxSeenB {
		p.maxSeenB = b
	}
}

func (p *Proc) onPromise(from sim.ProcID, msg *Msg) {
	if !p.proposer || p.phase != 1 || msg.B != p.ballot {
		return
	}
	p.promises[from] = promiseRec{acceptedB: msg.AcceptedB, acceptedV: msg.AcceptedV, has: msg.Has}
	if len(p.promises) < p.quorum() {
		return
	}
	// Choose the value of the highest accepted ballot among the quorum, or
	// the proposer's own input.
	v := p.input
	bestB := -1
	for _, pr := range p.promises {
		if pr.has && pr.acceptedB > bestB {
			bestB = pr.acceptedB
			v = pr.acceptedV
		}
	}
	p.propV = v
	p.phase = 2
	m := p.msg(MsgAccept)
	m.B, m.V = p.ballot, v
	p.broadcast(m)
}

func (p *Proc) onAccepted(from sim.ProcID, msg *Msg) {
	if !p.proposer || p.phase != 2 || msg.B != p.ballot {
		return
	}
	p.accepts[from] = true
	if len(p.accepts) < p.quorum() {
		return
	}
	// Chosen.
	if !p.decided {
		p.out, p.decided = p.propV, true
	}
	p.phase = 0
	m := p.msg(MsgDecided)
	m.V = p.propV
	p.broadcast(m)
}

func (p *Proc) onNack(msg *Msg) {
	if !p.proposer || p.phase == 0 || msg.B != p.ballot {
		return
	}
	p.trackBallot(msg.Promised)
	// Retry with a ballot above everything seen.
	nextRound := p.maxSeenB/p.n + 1
	if nextRound <= p.round {
		nextRound = p.round + 1
	}
	p.startRound(nextRound)
}

// Recycle implements sim.Recycler: it rewinds the processor to the state
// New would produce for the given input, keeping the quorum maps, the
// payload-box pool, and outbox capacity. Boxes stranded in an unsent outbox
// (responses enqueued in the trial's final window) are swept back to the
// pool first, so steady-state recycled trials allocate nothing. The
// proposer role persists — a processor is only ever recycled into a trial
// with the same proposer set.
func (p *Proc) Recycle(input sim.Bit) {
	p.reclaimOutbox()
	p.input = input
	p.out, p.decided = 0, false
	p.promisedB = -1
	p.acceptedB = -1
	p.acceptedV = 0
	p.hasAcc = false
	p.round = 0
	p.ballot = 0
	if p.promises != nil {
		clear(p.promises)
		clear(p.accepts)
	}
	p.phase = 0
	p.propV = 0
	p.maxSeenB = -1
	if p.proposer {
		p.startRound(1)
	}
}

// Reset implements sim.Process. Paxos acceptor state must be durable for
// safety; a reset erases it, and the paper's model is exactly the one where
// such erasure is adversarial. Like Ben-Or, Paxos is not reset-tolerant;
// the processor restarts with empty state (safety may then be violated,
// which experiments demonstrate as a contrast to the core algorithm). The
// written output survives (the write-once register is durable), as do the
// recycled containers (maps, box pool, outbox capacity).
func (p *Proc) Reset() {
	p.reclaimOutbox()
	p.promisedB = -1
	p.acceptedB = -1
	p.acceptedV = 0
	p.hasAcc = false
	p.round = 0
	p.ballot = 0
	if p.promises != nil {
		clear(p.promises)
		clear(p.accepts)
	}
	p.phase = 0
	p.propV = 0
	p.maxSeenB = -1
	if p.proposer {
		p.startRound(1)
	}
}

// Snapshot implements sim.Process.
func (p *Proc) Snapshot() string {
	var b strings.Builder
	b.WriteString("promised=")
	b.WriteString(strconv.Itoa(p.promisedB))
	b.WriteString(" accepted=")
	if p.hasAcc {
		b.WriteString(strconv.Itoa(p.acceptedB))
		b.WriteByte('/')
		b.WriteByte('0' + byte(p.acceptedV))
	} else {
		b.WriteString("none")
	}
	b.WriteString(" out=")
	if p.decided {
		b.WriteByte('0' + byte(p.out))
	} else {
		b.WriteByte('_')
	}
	return b.String()
}
