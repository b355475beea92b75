// Package protocol defines the wire protocols of the matchmaking
// framework (paper §3, components 2, 4 and 5):
//
//   - the advertising protocol, by which providers and customers send
//     classads to the pool manager (ADVERTISE, INVALIDATE) and tools
//     pose one-way queries (QUERY);
//   - the matchmaking protocol, by which the matchmaker notifies both
//     parties of a match, forwarding each the other's ad together with
//     the provider's authorization ticket (MATCH);
//   - the claiming protocol, by which the customer contacts the
//     provider directly — the matchmaker is no longer involved — and
//     the provider re-verifies the ticket and its constraints against
//     current state (CLAIM/CLAIM_REPLY/RELEASE/PREEMPT), optionally
//     inside an HMAC challenge–response handshake (paper §3.2,
//     "Authentication").
//
// Messages are newline-delimited JSON envelopes; classads travel in
// their native source syntax inside the envelopes. The format favours
// debuggability (every daemon conversation is readable with a pipe
// through cat) over compactness, like the deployed system's.
package protocol

import (
	"bufio"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/classad"
)

// MsgType identifies a protocol message.
type MsgType string

// The protocol's message vocabulary.
const (
	TypeAdvertise  MsgType = "ADVERTISE"
	TypeInvalidate MsgType = "INVALIDATE"
	// TypeUpdateDelta refreshes a previously advertised ad by sending
	// only the attributes that changed (Ad) and the attributes that
	// disappeared (Removed) against a base sequence number. The
	// collector merges the delta into its stored copy when BaseSeq
	// matches the stored sequence and otherwise rejects the delta so
	// the advertiser falls back to a full ADVERTISE — a lost or
	// reordered delta can delay freshness but never corrupt an ad.
	// An empty delta (no Ad, no Removed) is a pure heartbeat: it
	// renews the lifetime without resending any attribute.
	TypeUpdateDelta MsgType = "UPDATE_DELTA"
	TypeQuery       MsgType = "QUERY"
	TypeQueryReply  MsgType = "QUERY_REPLY"
	TypeMatch       MsgType = "MATCH"
	TypeClaim       MsgType = "CLAIM"
	TypeClaimReply  MsgType = "CLAIM_REPLY"
	TypeRelease     MsgType = "RELEASE"
	TypePreempt     MsgType = "PREEMPT"
	TypeChallenge   MsgType = "CHALLENGE"
	TypeChalReply   MsgType = "CHALLENGE_REPLY"
	TypeAck         MsgType = "ACK"
	TypeError       MsgType = "ERROR"
	// TypeSubmit delivers a job ad to a customer agent's queue (the
	// submission tool's message; not part of the paper's matchmaker
	// protocols, which begin once the job is queued).
	TypeSubmit MsgType = "SUBMIT"

	// Remote-syscall sub-protocol (Figure 2's WantRemoteSyscalls):
	// spoken between a starter on the claimed machine and the shadow
	// at the customer's site. The execution site holds no job state.
	TypeSysOpen  MsgType = "SYS_OPEN"
	TypeSysFd    MsgType = "SYS_FD"
	TypeSysRead  MsgType = "SYS_READ"
	TypeSysData  MsgType = "SYS_DATA"
	TypeSysWrite MsgType = "SYS_WRITE"
	TypeSysTrunc MsgType = "SYS_TRUNC"
	TypeSysClose MsgType = "SYS_CLOSE"
	// Checkpoint store (Figure 2's WantCheckpoint).
	TypeCkptSave MsgType = "CKPT_SAVE"
	TypeCkptLoad MsgType = "CKPT_LOAD"
	TypeCkptData MsgType = "CKPT_DATA"
	// TypeJobDone notifies the customer agent that the starter on a
	// claimed machine ran the job to completion.
	TypeJobDone MsgType = "JOB_DONE"

	// Negotiator high availability (not in the paper, which assumes a
	// single matchmaker per pool; the deployed system later grew the
	// same mechanism): a negotiator asks the collector — the pool's
	// single arbiter — for the leadership lease, renewing it each
	// heartbeat. The reply carries the granted (or observed) holder,
	// fencing epoch and absolute deadline.
	TypeLease      MsgType = "LEASE"
	TypeLeaseReply MsgType = "LEASE_REPLY"
)

// Idempotent reports whether delivering an envelope of type t twice
// has the effect of delivering it once (DESIGN.md, "Failure
// semantics"): only these exchanges are retried or replayed after a
// transport failure. A CLAIM consumes a ticket and a SUBMIT queues a
// job per delivery, so neither is.
func Idempotent(t MsgType) bool {
	switch t {
	case TypeAdvertise, TypeUpdateDelta, TypeInvalidate, TypeQuery, //epochguard:ok classifies message types; acts on no MATCH
		TypeLease, TypeMatch, TypeRelease:
		return true
	default:
		return false
	}
}

// Envelope is the on-wire frame: one JSON object per line.
type Envelope struct {
	Type MsgType `json:"type"`
	// Ad carries a classad in source syntax where the message has a
	// primary ad (ADVERTISE, QUERY, CLAIM's request ad).
	Ad string `json:"ad,omitempty"`
	// PeerAd carries the counterpart's ad in a MATCH notification.
	PeerAd string `json:"peer_ad,omitempty"`
	// Ads carries multiple ads (QUERY_REPLY).
	Ads []string `json:"ads,omitempty"`
	// Name identifies an ad to invalidate, or the matched entity.
	Name string `json:"name,omitempty"`
	// Ticket is the provider's authorization capability.
	Ticket string `json:"ticket,omitempty"`
	// Session is the matchmaker-minted session identifier handed to
	// both parties of a match.
	Session string `json:"session,omitempty"`
	// Trace is the causal trace identifier minted when a request is
	// submitted and propagated through every envelope sent on its
	// behalf (MATCH, CLAIM, RELEASE, PREEMPT, JOB_DONE), so the spans
	// each daemon records reassemble into one cross-process trace
	// (obs package). Older peers ignore it; its absence leaves the
	// request untraced, never unserved.
	Trace string `json:"trace,omitempty"`
	// Span is the sender's span ID — the parent under which the
	// receiver records its own span, giving the trace its tree shape.
	Span string `json:"span,omitempty"`
	// Lifetime is the advertisement's validity in seconds; the
	// collector expires ads that are not refreshed (advertising
	// protocol bookkeeping). In a LEASE request it is the requested
	// lease duration.
	Lifetime int64 `json:"lifetime,omitempty"`
	// Epoch is the leadership fencing token: the collector bumps it
	// each time the lease changes hands, the leader stamps it into
	// MATCH notifications, and customer agents reject matches bearing
	// an epoch below the highest they have seen — a deposed leader's
	// stale matches cannot double-grant a resource. Zero (absent) means
	// the sender is not HA-aware; such matches are accepted for
	// compatibility.
	Epoch uint64 `json:"epoch,omitempty"`
	// Holder names the current lease holder in LEASE traffic.
	Holder string `json:"holder,omitempty"`
	// Deadline is the lease expiry as absolute pool time (Unix
	// seconds). Absolute rather than relative so a standby that
	// observes the reply can wait out the precise remainder.
	Deadline int64 `json:"deadline,omitempty"`
	// Seq is the advertiser-assigned sequence number of the ad state
	// an ADVERTISE or UPDATE_DELTA establishes; BaseSeq is the
	// sequence number the delta patches. The collector applies an
	// UPDATE_DELTA only when BaseSeq equals the stored ad's sequence,
	// so deltas compose into exactly the ad the advertiser holds.
	Seq     uint64 `json:"seq,omitempty"`
	BaseSeq uint64 `json:"base_seq,omitempty"`
	// Removed lists attributes deleted since BaseSeq (UPDATE_DELTA).
	Removed []string `json:"removed,omitempty"`
	// Accepted reports a claim verdict.
	Accepted bool `json:"accepted,omitempty"`
	// Reason explains errors and claim rejections.
	Reason string `json:"reason,omitempty"`
	// Nonce and MAC implement the challenge-response handshake.
	Nonce string `json:"nonce,omitempty"`
	MAC   string `json:"mac,omitempty"`
	// Projection restricts QUERY replies to the named attributes
	// (Name is always included).
	Projection []string `json:"projection,omitempty"`
	// Remote-syscall fields.
	Path   string `json:"path,omitempty"`
	Mode   string `json:"mode,omitempty"`
	Fd     int64  `json:"fd,omitempty"`
	Offset int64  `json:"offset,omitempty"`
	Count  int64  `json:"count,omitempty"`
	// Data carries file or checkpoint bytes, base64-encoded.
	Data string `json:"data,omitempty"`
	// EOF marks a read that reached end of file.
	EOF bool `json:"eof,omitempty"`
}

// maxLine bounds a single message to keep a misbehaving peer from
// exhausting memory; generous for any realistic classad.
const maxLine = 16 << 20

// Write frames and sends one envelope.
func Write(w io.Writer, e *Envelope) error {
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("protocol: marshal %s: %w", e.Type, err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Exchange sends env on w and receives the reply from r.
func Exchange(w io.Writer, r *bufio.Reader, env *Envelope) (*Envelope, error) {
	if err := Write(w, env); err != nil {
		return nil, err
	}
	return Read(r)
}

// Read receives one envelope from a buffered reader. Buffering is
// bounded: the line is accumulated one bufio chunk at a time and the
// read fails as soon as it exceeds maxLine, so a misbehaving peer can
// only force ~maxLine of allocation, never an unbounded frame. A
// truncated frame (the connection died mid-line) returns the
// transport error rather than attempting to decode partial bytes; the
// only tolerated irregularity is a missing trailing newline on the
// final message of a connection.
func Read(r *bufio.Reader) (*Envelope, error) {
	var line []byte
	for {
		chunk, err := r.ReadSlice('\n')
		line = append(line, chunk...)
		if len(line) > maxLine {
			return nil, fmt.Errorf("protocol: message exceeds %d bytes", maxLine)
		}
		if err == nil {
			break
		}
		if err == bufio.ErrBufferFull {
			continue // mid-line; keep accumulating, bounded above
		}
		if err == io.EOF && len(line) > 0 {
			break // missing trailing newline on a final message
		}
		return nil, err
	}
	var e Envelope
	if err := json.Unmarshal(line, &e); err != nil {
		return nil, fmt.Errorf("protocol: bad frame: %w", err)
	}
	if e.Type == "" {
		return nil, fmt.Errorf("protocol: frame missing type")
	}
	// Canonicalize: a frame carrying an explicit empty list ("Ads":[])
	// decodes to an empty non-nil slice, which omitempty would then
	// drop on re-encode — the decoded form must round-trip unchanged
	// (fuzz-found, see testdata/fuzz/FuzzReadEnvelope).
	if len(e.Ads) == 0 {
		e.Ads = nil
	}
	if len(e.Projection) == 0 {
		e.Projection = nil
	}
	if len(e.Removed) == 0 {
		e.Removed = nil
	}
	return &e, nil
}

// EncodeAd renders an ad for an envelope field.
func EncodeAd(ad *classad.Ad) string { return ad.String() }

// DecodeAd parses an envelope's ad field.
func DecodeAd(s string) (*classad.Ad, error) {
	if s == "" {
		return nil, fmt.Errorf("protocol: empty ad field")
	}
	return classad.Parse(s)
}

// NewTicket mints a fresh 128-bit authorization ticket. The RA
// includes it in its advertisement; the matchmaker forwards it to the
// matched customer; the RA honours a claim only if the presented
// ticket matches (paper §4).
func NewTicket() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("protocol: ticket entropy: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// NewSession mints a session identifier for a match notification.
func NewSession() (string, error) { return NewTicket() }

// NewNonce mints a challenge nonce.
func NewNonce() (string, error) { return NewTicket() }

// Respond computes the challenge response: HMAC-SHA256 keyed by the
// shared ticket over the nonce. Both parties know the ticket (the RA
// minted it; the CA received it via the matchmaker), so each can
// prove knowledge without sending it again (paper §3.2: "A challenge-
// response handshake can be added to the claiming protocol at very
// little cost").
func Respond(ticket, nonce string) string {
	mac := hmac.New(sha256.New, []byte(ticket))
	mac.Write([]byte(nonce))
	return hex.EncodeToString(mac.Sum(nil))
}

// VerifyResponse checks a challenge response in constant time.
func VerifyResponse(ticket, nonce, response string) bool {
	want := Respond(ticket, nonce)
	got, err := hex.DecodeString(response)
	if err != nil {
		return false
	}
	wantRaw, _ := hex.DecodeString(want)
	return hmac.Equal(wantRaw, got)
}

// Errorf builds an ERROR envelope.
func Errorf(format string, args ...any) *Envelope {
	return &Envelope{Type: TypeError, Reason: fmt.Sprintf(format, args...)}
}
