package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"react/internal/wire"
)

// watchSeq tags the set-up watch request, outside the range of
// submission sequence numbers (job index + 1).
const watchSeq = 1 << 62

// requester is one pipelined requester connection speaking the wire
// protocol: the generator writes each submission at its due time without
// waiting for earlier replies, and one reader matches replies to
// submissions by sequence number and collects result pushes. wire.Client
// allows one call in flight per connection, which at these rates would
// queue submissions in the generator and time the client library rather
// than the server.
type requester struct {
	nc  net.Conn
	rd  *bufio.Reader
	buf []byte // frame scratch; the dispatcher's only
}

// dialRequester connects and subscribes to result pushes.
func dialRequester(addr string) (*requester, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	r := &requester{nc: nc, rd: bufio.NewReaderSize(nc, 64<<10)}
	if err := r.write(&wire.Message{Type: "watch", Seq: watchSeq}); err != nil {
		nc.Close()
		return nil, err
	}
	line, err := r.rd.ReadSlice('\n')
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("watch reply: %w", err)
	}
	var m wire.Message
	if err := json.Unmarshal(line, &m); err != nil || m.Type != "ok" || m.Seq != watchSeq {
		nc.Close()
		return nil, fmt.Errorf("watch refused: %q", line)
	}
	return r, nil
}

func (r *requester) write(m *wire.Message) error {
	r.buf = wire.AppendFrame(r.buf[:0], m)
	_, err := r.nc.Write(r.buf)
	return err
}

func (r *requester) close() { r.nc.Close() }

// reader is one connection's receive side for a pass.
type reader struct {
	p        *pass
	conn     int
	distinct atomic.Int64 // admitted tasks whose result arrived here
	protoErr atomic.Int64 // frames that made no sense
}

// run consumes frames until the connection closes: submit replies land
// in the pass's submitObs (one writer per task: the reader of the
// connection it was sent on), results in the pass's per-connection list.
func (rd *reader) run(r *requester) {
	p := rd.p
	seen := make([]bool, len(p.in.jobs))
	for {
		line, err := r.rd.ReadSlice('\n')
		if err != nil {
			if errors.Is(err, bufio.ErrBufferFull) {
				rd.protoErr.Add(1)
			}
			return // closed at shutdown
		}
		at := time.Now()
		var m wire.Message
		if err := json.Unmarshal(line, &m); err != nil {
			rd.protoErr.Add(1)
			continue
		}
		switch m.Type {
		case "result":
			idx, ok := p.in.index[m.Result.TaskID]
			if !ok {
				idx = -1
			}
			p.results[rd.conn] = append(p.results[rd.conn], resultObs{task: idx, at: at, met: m.Result.MetDeadline, expired: m.Result.Expired})
			if ok && !seen[idx] {
				seen[idx] = true
				rd.distinct.Add(1)
			}
		case "ok", "error":
			i := int(m.Seq) - 1
			if i < 0 || i >= len(p.in.jobs) || p.in.jobs[i].conn != rd.conn {
				rd.protoErr.Add(1)
				continue
			}
			o := &p.subs[i]
			o.ackAt = at
			switch {
			case m.Type == "ok":
				p.admitted.Add(1)
			case refusal(m.Code):
				o.code = m.Code
			default:
				o.failed = "server error: " + m.Error
			}
			p.acked.Add(1)
		default:
			rd.protoErr.Add(1)
		}
	}
}

// refusal reports whether a wire error code is a typed refusal the
// benchmark counts as a deadline miss rather than an error: the admission
// gates, the engine ceiling, and a deadline already gone at receipt.
func refusal(code string) bool {
	switch code {
	case wire.CodeRejectedRate, wire.CodeRejectedProbability, wire.CodeQueueFull, wire.CodePastDeadline:
		return true
	}
	return false
}
