(** Deterministic, seeded fault-injection adversaries for {!Sim}.

    An adversary sits between a node's {!Sim.send} and the round buffer
    its message would be delivered from, and may, per message: drop it (iid rate or scheduled bursts on chosen
    edges), duplicate it (the extra copy optionally delayed, modelling
    retransmitting hardware), or delay it by a bounded number of rounds
    (reordering within the window). Independently, it may {e crash-stop} a
    chosen set of nodes at chosen rounds: from its crash round onward a
    node executes nothing, sends nothing, and receives nothing.

    All randomness is drawn from {!Dsgraph.Rng} seeded by [spec.seed], and
    decisions are consumed in the simulator's deterministic message order,
    so an entire fault schedule is replayable from its spec — rerunning
    the same program on the same graph under [create spec] injects exactly
    the same faults. *)

type burst = {
  from_round : int;  (** first affected round (1-based, inclusive) *)
  until_round : int;  (** last affected round (inclusive) *)
  on_edges : (int * int) list option;
      (** edges (either orientation) whose messages are dropped during the
          burst; [None] means every edge — a network-wide blackout *)
}

type spec = {
  seed : int;
  drop : float;  (** iid per-message drop probability in [0, 1] *)
  duplicate : float;  (** iid per-message duplication probability *)
  delay : float;  (** iid per-message delay probability *)
  delay_window : int;
      (** maximum extra rounds a delayed message (or duplicate copy) may
          take; delays are uniform on [1 .. delay_window] *)
  bursts : burst list;  (** adversarial burst schedules, checked first *)
  crashes : (int * int) list;
      (** [(node, round)]: node crash-stops at the {e start} of [round] *)
  revives : (int * int) list;
      (** [(node, round)]: a previously crashed node resumes at the
          {e start} of [round] — a {e churn} adversary. Its program state
          is whatever it held when it crashed (crash-recovery, not
          reboot); messages sent to it while down are lost, and
          neighbors that already declared it dead at the transport
          layer ignore it. Per node, crash and revive rounds must
          strictly interleave ([c1 < r1 < c2 < r2 < ...]); a final
          crash without a matching revive is permanent. *)
}

val spec :
  ?seed:int ->
  ?drop:float ->
  ?duplicate:float ->
  ?delay:float ->
  ?delay_window:int ->
  ?bursts:burst list ->
  ?crashes:(int * int) list ->
  ?revives:(int * int) list ->
  unit ->
  spec
(** Smart constructor; everything defaults to benign (no faults, seed 0). *)

type t
(** An instantiated adversary: spec + RNG stream + fault counters.
    Single-use — create a fresh one per {!Sim.simulate} to replay a schedule. *)

val create : spec -> t
(** @raise Invalid_argument on rates outside [0, 1] (NaN included),
    negative windows, crash rounds < 1, burst windows with
    [until_round < from_round], or a churn schedule whose crash/revive
    rounds do not strictly interleave per node (a revive without a
    preceding crash, a revive at or before its crash, or a re-crash
    before the pending revive). *)

val spec_of : t -> spec

(** {2 Interface consumed by {!Sim} — exposed for tests and custom
    harnesses} *)

type fate =
  | Deliver
  | Drop
  | Duplicate of int
      (** deliver now {e and} deliver an extra copy after this many extra
          rounds (0 = both copies in the same inbox) *)
  | Delay of int  (** deliver after this many extra rounds ([>= 1]) *)

val fate : t -> round:int -> src:int -> dst:int -> fate
(** Decide the fate of one message sent in [round] over edge
    [(src, dst)]; advances the RNG stream and the counters. *)

val is_crashed : t -> round:int -> int -> bool
(** Whether a node is crash-stopped at (the start of) [round]; with a
    churn schedule this is interval membership, so a revived node
    reports [false] again until its next crash. *)

val crashed_nodes : t -> upto_round:int -> int list
(** Sorted list of nodes whose {e first} crash round is
    [<= upto_round], whether or not they were later revived. *)

val down_nodes : t -> round:int -> int list
(** Sorted list of nodes crash-stopped {e at} [round] — the churn-aware
    complement of the survivor set at that instant. *)

val count_drop : t -> unit
(** Record a message lost for a non-[fate] reason (sent to an
    already-crashed destination). *)

val dropped : t -> int
val duplicated : t -> int
val delayed : t -> int

val pp : Format.formatter -> t -> unit
