(* Shared plumbing of the benchmark: clocks, order statistics, process
   accounting read from /proc, the per-run scratch directory, and the
   one-line JSON result the command prints last. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let ms s = 1000.0 *. s

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Nearest-rank percentile, [q] in (0, 1]. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (r - 1)))

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Relative closeness, with an absolute floor for values near zero. *)
let close ?(rel = 1e-6) a b =
  Float.abs (a -. b) <= rel *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(* ------------------------------------------------------------------ *)
(* Process accounting                                                  *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Linux reports utime/stime in clock ticks of 1/100 s on every
   mainstream configuration (USER_HZ). *)
let clk_tck = 100.0

(* User + system CPU seconds of process [pid], from /proc/<pid>/stat.
   The command field may contain spaces, so fields are counted from the
   closing parenthesis. *)
let proc_cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest =
    let i = String.rindex s ')' in
    String.sub s (i + 2) (String.length s - i - 2)
  in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* after the command: state(0) ppid(1) ... utime(11) stime(12) *)
  (float_of_string f.(11) +. float_of_string f.(12)) /. clk_tck

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak resident set (VmHWM) of [pid] in MiB. *)
let peak_rss_mb pid =
  let s = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' s)
  in
  let kb =
    Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
  in
  float_of_int kb /. 1024.0

(* ------------------------------------------------------------------ *)
(* Scratch directory inside the checkout                               *)
(* ------------------------------------------------------------------ *)

let root_dir = ".perfbench"

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Cleanup actions, run last-registered first, exactly once, on every
   exit path (normal return, exception, or a terminating signal, which
   the entry point turns into [exit]). *)
let cleanups : (unit -> unit) list ref = ref []

let on_cleanup f = cleanups := f :: !cleanups

let run_cleanups () =
  let fs = !cleanups in
  cleanups := [];
  List.iter (fun f -> try f () with _ -> ()) fs

let run_dir =
  lazy
    (let dir = Filename.concat root_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
     (try Unix.mkdir root_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     remove_tree dir;
     Unix.mkdir dir 0o755;
     on_cleanup (fun () ->
         remove_tree dir;
         try Unix.rmdir root_dir with Unix.Unix_error _ -> ());
     dir)

let scratch name = Filename.concat (Lazy.force run_dir) name

(* ------------------------------------------------------------------ *)
(* Result                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* Tally of operations and the verdict of the independent checks. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (* first few failure reasons, for stderr *)
  mutable self_test_ok : bool;
}

let tally () = { attempted = 0; failed = 0; problems = []; self_test_ok = true }

let note_problem t msg =
  if List.length t.problems < 10 then t.problems <- msg :: t.problems

(* Count one operation; [errors] are the reasons it failed, if any. *)
let record_op t errors =
  t.attempted <- t.attempted + 1;
  match errors with
  | [] -> ()
  | e :: _ ->
    t.failed <- t.failed + 1;
    note_problem t e

let self_test t ok msg =
  if not ok then begin
    t.self_test_ok <- false;
    note_problem t ("self-test: " ^ msg)
  end

let print_result t metrics =
  List.iter (fun p -> prerr_endline ("perfbench: " ^ p)) (List.rev t.problems);
  let bad = List.filter (fun m -> not (Float.is_finite m.value)) metrics in
  List.iter (fun m -> prerr_endline ("perfbench: non-finite metric " ^ m.name)) bad;
  let correct = t.self_test_ok && t.failed = 0 && bad = [] && t.attempted > 0 in
  let metrics = List.filter (fun m -> Float.is_finite m.value) metrics in
  let field m =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 t.attempted) t.failed
    (String.concat ", " (List.map field metrics))

(* ------------------------------------------------------------------ *)
(* Rounds                                                              *)
(* ------------------------------------------------------------------ *)

(* One timed round of a run: its wall time, the CPU seconds of the
   measured process, and its get latencies in seconds. *)
type round = { wall : float; cpu : float; ops : int; gets : float list }

let sum f rs = List.fold_left (fun acc r -> acc +. f r) 0.0 rs

(* The end-to-end timing metrics of a run's rounds.  [get] and [tail]
   summarise the get latencies. *)
let round_metrics ~get ~tail rounds =
  let ops = sum (fun r -> float_of_int r.ops) rounds in
  let gets = List.concat_map (fun r -> r.gets) rounds in
  [ metric "ops_per_s" "1/s" (ops /. sum (fun r -> r.wall) rounds);
    metric "get_ms" "ms" (ms (get gets));
    metric "get_tail_ms" "ms" (ms (tail gets));
    metric "cpu_ms_per_op" "ms" (ms (sum (fun r -> r.cpu) rounds /. ops)) ]

(* Mean of the slowest [share] of the samples. *)
let tail_mean share xs =
  let a = sorted xs in
  let n = Array.length a in
  let k = max 1 (int_of_float (Float.round (share *. float_of_int n))) in
  mean (Array.to_list (Array.sub a (n - k) k))
