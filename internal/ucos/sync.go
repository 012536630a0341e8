package ucos

// uC/OS-II synchronization primitives: counting semaphores and message
// queues. Waiters are released in priority order (uC/OS-II semantics), not
// FIFO.

// Sem is a counting semaphore (OSSemCreate).
type Sem struct {
	os      *OS
	count   int
	waiters []*TCB
}

// SemCreate makes a semaphore with an initial count.
func (os *OS) SemCreate(initial int) *Sem {
	return &Sem{os: os, count: initial}
}

func removeWaiter(t *TCB) {
	switch obj := t.pendingOn.(type) {
	case *Sem:
		obj.removeWaiter(t)
	case *Queue:
		obj.removeWaiter(t)
	}
	t.pendingOn = nil
}

func (s *Sem) removeWaiter(t *TCB) {
	for i, w := range s.waiters {
		if w == t {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return
		}
	}
}

// bestWaiter pops the highest-priority waiter.
func popBest(ws *[]*TCB) *TCB {
	if len(*ws) == 0 {
		return nil
	}
	best := 0
	for i, w := range *ws {
		if w.Prio < (*ws)[best].Prio {
			best = i
		}
	}
	t := (*ws)[best]
	*ws = append((*ws)[:best], (*ws)[best+1:]...)
	return t
}

// Pend is OSSemPend: decrement or block. timeout is in ticks (0 = wait
// forever). Returns false on timeout.
func (t *Task) SemPend(s *Sem, timeout uint32) bool {
	t.Ctx.Exec(35)
	if s.count > 0 {
		s.count--
		return true
	}
	tcb := t.TCB
	tcb.state = statePending
	tcb.delay = timeout
	tcb.pendingOn = s
	tcb.pendOK = false
	s.waiters = append(s.waiters, tcb)
	tcb.yieldToScheduler()
	return tcb.pendOK
}

// SemPost is OSSemPost: release the best waiter or bank the count.
// Post is legal from ISR context too (it only mutates kernel state).
func (s *Sem) Post() {
	if w := popBest(&s.waiters); w != nil {
		w.pendOK = true
		w.pendingOn = nil
		w.delay = 0
		w.state = stateReady
		s.os.needSwitch = true
		return
	}
	s.count++
}

// SemPost from a task charges the call path.
func (t *Task) SemPost(s *Sem) {
	t.Ctx.Exec(30)
	s.Post()
	t.checkpoint()
}

// Queue is a fixed-capacity FIFO message queue (OSQ*).
type Queue struct {
	os      *OS
	buf     []uint32
	waiters []*TCB
	cap     int
}

// QueueCreate makes a queue holding up to capacity messages.
func (os *OS) QueueCreate(capacity int) *Queue {
	return &Queue{os: os, cap: capacity}
}

func (q *Queue) removeWaiter(t *TCB) {
	for i, w := range q.waiters {
		if w == t {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			return
		}
	}
}

// QueuePend waits for a message.
func (t *Task) QueuePend(q *Queue, timeout uint32) (uint32, bool) {
	t.Ctx.Exec(40)
	if len(q.buf) > 0 {
		msg := q.buf[0]
		q.buf = q.buf[1:]
		return msg, true
	}
	tcb := t.TCB
	tcb.state = statePending
	tcb.delay = timeout
	tcb.pendingOn = q
	tcb.pendOK = false
	q.waiters = append(q.waiters, tcb)
	tcb.yieldToScheduler()
	if !tcb.pendOK {
		return 0, false
	}
	msg := q.buf[0]
	q.buf = q.buf[1:]
	return msg, true
}

// Post enqueues a message (false when full).
func (q *Queue) Post(msg uint32) bool {
	if len(q.buf) >= q.cap {
		return false
	}
	q.buf = append(q.buf, msg)
	if w := popBest(&q.waiters); w != nil {
		w.pendOK = true
		w.pendingOn = nil
		w.delay = 0
		w.state = stateReady
		q.os.needSwitch = true
	}
	return true
}

// QueuePost from a task charges the call path.
func (t *Task) QueuePost(q *Queue, msg uint32) bool {
	t.Ctx.Exec(35)
	ok := q.Post(msg)
	t.checkpoint()
	return ok
}
