(** Write-ahead journal of accepted daemon mutations.

    Built on {!Dls_util.Wal} (the same append-only JSONL +
    torn-tail-truncation + atomic-manifest machinery the campaign
    Engine uses), specialised to {!Protocol.mutation} records:

    - Each accepted mutation is appended as one JSON line
      [{"seq":N,...mutation...}] and flushed before the client sees its
      reply, so {e acknowledged implies journaled}: a [kill -9]
      anywhere afterwards replays to a state containing it.
    - Sequence numbers must be dense (0, 1, 2, ...); a gap or disorder
      means the file was damaged in the middle and the journal refuses
      to open rather than silently reconstructing a different state.
    - A manifest at [path ^ ".manifest"] pins the nominal platform's
      fingerprint; opening a journal against a different platform is
      refused (the WAL encodes deltas relative to that platform).  It
      is written once, at {!open_}: appends touch only the log.
    - A torn final line (the kill landed mid-append) is dropped and the
      file truncated back to the valid prefix, exactly as the Engine
      does for campaign logs. *)

type t

val open_ :
  path:string ->
  platform:Dls_platform.Platform.t ->
  (State.t * t, string) result
(** Open (creating if absent) the journal at [path], replay every valid
    record into a fresh {!State.t} for [platform], truncate any torn
    tail, and return the recovered state plus the handle for appends.
    [Error] on a corrupt non-tail record, a sequence gap, a manifest
    fingerprint mismatch, or a mutation the state rejects on replay
    (all of which mean the journal does not belong to this daemon). *)

val append : t -> Protocol.mutation -> unit
(** Journal one {e already validated and applied} mutation: append the
    record and flush.  Call only after {!State.apply} returned [Ok]. *)

val entries : t -> int
(** Records journaled so far (replayed + appended). *)

val close : t -> unit

val manifest_path : string -> string
(** [path ^ ".manifest"]. *)
