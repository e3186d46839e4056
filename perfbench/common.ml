(** Measurement core shared by the workloads: monotonic clock, sample
    statistics, span tracing with replay attribution, runtime (GC)
    accounting, and the JSON report.  Everything here observes the
    program from outside, through its public API. *)

(* -- clock ------------------------------------------------------------- *)

let now_ns () = Monotonic_clock.now ()
let secs_between a b = Int64.to_float (Int64.sub b a) /. 1e9

(* Time excluded from the measuring clock (sampled correctness checks
   and trace replays run inline but are not load). *)
let paused_ns = ref 0L

let paused f =
  let t0 = now_ns () in
  Fun.protect f ~finally:(fun () ->
      paused_ns := Int64.add !paused_ns (Int64.sub (now_ns ()) t0))

(* -- samples ----------------------------------------------------------- *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n
  let sum t = Array.fold_left ( +. ) 0.0 (Array.sub t.a 0 t.n)
  let clear t = t.n <- 0

  (** Linear-interpolated percentile ([p] in 0..100); 0 when empty. *)
  let percentile t p =
    if t.n = 0 then 0.0
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort compare s;
      let r = p /. 100.0 *. float_of_int (t.n - 1) in
      let i = truncate r in
      let f = r -. float_of_int i in
      if i + 1 >= t.n then s.(t.n - 1) else s.(i) +. (f *. (s.(i + 1) -. s.(i)))
    end
end

(* -- tracing ------------------------------------------------------------ *)

(** Spans around public calls.  A span records its name, start, end, the
    span that encloses it, the op it belongs to and the name of its tree's
    root: ["op"] for a timed op, ["write"] for a workload's untimed write
    step between rounds, ["replay"] for a replay sample.  Spans stay in
    memory until the run writes them out.  Replays re-run sampled inputs
    through a hidden call's stage functions; they only provide the shares
    by which that call's time is split, and run after the op's span has
    closed, with the measuring clock paused. *)
module Trace = struct
  type span = {
    id : int;
    parent : int; (* -1 at a root *)
    op : int; (* op index; for a replay, its sample id *)
    root : string; (* "op", "write" or "replay" *)
    name : string;
    t0 : int64;
    t1 : int64;
  }

  let on = ref false
  let spans : span list ref = ref []
  let next_id = ref 0
  let stack : int list ref = ref []
  let cur_op = ref 0
  let cur_root = ref ""

  let span name f =
    if not !on then f ()
    else begin
      let id = !next_id in
      incr next_id;
      let parent = match !stack with p :: _ -> p | [] -> -1 in
      if parent < 0 then cur_root := name;
      stack := id :: !stack;
      let op = !cur_op and root = !cur_root in
      let t0 = now_ns () in
      let finish () =
        let t1 = now_ns () in
        stack := List.tl !stack;
        spans := { id; parent; op; root; name; t0; t1 } :: !spans
      in
      match f () with
      | r ->
        finish ();
        r
      | exception e ->
        finish ();
        raise e
    end

  (* Replay samples: the hidden call's traced duration, and the id of the
     replay that split it. *)
  type sample = { kind : string; real_ns : int64; replay_op : int }

  let samples : sample list ref = ref []
  let n_replays = ref 0
  let pending : (unit -> unit) Queue.t = Queue.create ()

  let replays_failed = ref 0

  (** Queue a replay of one input of the hidden call [kind], whose traced
      duration was [real_ns]; {!run_pending} runs it.  A replay that
      raises gives no sample. *)
  let replay ~kind ~real_ns f =
    Queue.add
      (fun () ->
        incr n_replays;
        let rop = !n_replays in
        let saved_op = !cur_op in
        cur_op := rop;
        match span "replay" f with
        | () ->
          cur_op := saved_op;
          samples := { kind; real_ns; replay_op = rop } :: !samples
        | exception e ->
          cur_op := saved_op;
          incr replays_failed;
          Printf.eprintf "replay of %s failed: %s\n%!" kind (Printexc.to_string e))
      pending

  (** Run the queued replays, outside any span, with the clock paused. *)
  let run_pending () =
    if not (Queue.is_empty pending) then
      paused (fun () ->
          while not (Queue.is_empty pending) do
            (Queue.pop pending) ()
          done)

  (** Duration of the most recently closed span named [name]. *)
  let last_ns name =
    match List.find_opt (fun s -> s.name = name) !spans with
    | Some s -> Int64.sub s.t1 s.t0
    | None -> 0L

  let dur s = Int64.to_float (Int64.sub s.t1 s.t0) /. 1e6

  (** Self time (ms) of every span: its duration minus what its direct
      children cover. *)
  let self_times (l : span list) : (span * float) list =
    let child = Hashtbl.create 1024 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace child s.parent
            (dur s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.0))
      l;
    List.map
      (fun s -> (s, dur s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0))
      l

  (** Per-bucket self time (ms, summed over the spans of timed ops).  A
      span whose name is a replayed [kind] is split by the replay shares
      of its stages; whatever those shares leave, and every op root's own
      self time, goes to ["unattributed"].  The buckets add up to the op
      roots' durations; the caller compares that with the op latency its
      own clock measured. *)
  let attribute () : (string * float) list =
    let all = self_times !spans in
    let traced = List.filter (fun ((s : span), _) -> s.root = "op") all in
    let replayed = List.filter (fun ((s : span), _) -> s.root = "replay") all in
    let kinds = List.sort_uniq compare (List.map (fun s -> s.kind) !samples) in
    (* shares: stage self time over the real duration of the sampled call *)
    let shares =
      List.map
        (fun k ->
          let ss = List.filter (fun s -> s.kind = k) !samples in
          let real =
            List.fold_left (fun a s -> a +. (Int64.to_float s.real_ns /. 1e6)) 0.0 ss
          in
          let ops = List.map (fun s -> s.replay_op) ss in
          let by_stage = Hashtbl.create 8 in
          List.iter
            (fun ((s : span), self) ->
              if List.mem s.op ops && s.name <> "replay" then
                Hashtbl.replace by_stage s.name
                  (self +. Option.value (Hashtbl.find_opt by_stage s.name) ~default:0.0))
            replayed;
          let stages = Hashtbl.fold (fun n t acc -> (n, t) :: acc) by_stage [] in
          let total = List.fold_left (fun a (_, t) -> a +. t) 0.0 stages in
          let norm = if total > real && total > 0.0 then real /. total else 1.0 in
          ( k,
            List.map
              (fun (n, t) -> (n, if real > 0.0 then t *. norm /. real else 0.0))
              stages ))
        kinds
    in
    let buckets = Hashtbl.create 32 in
    let add n t =
      Hashtbl.replace buckets n (t +. Option.value (Hashtbl.find_opt buckets n) ~default:0.0)
    in
    List.iter
      (fun ((s : span), self) ->
        if s.parent < 0 then (* an op root: its own time is the benchmark's *)
          add "unattributed" self
        else
          match List.assoc_opt s.name shares with
          | Some st ->
            let covered =
              List.fold_left
                (fun a (n, f) ->
                  add n (f *. self);
                  a +. f)
                0.0 st
            in
            add "unattributed" ((1.0 -. covered) *. self)
          | None -> add s.name self)
      traced;
    Hashtbl.fold (fun n t acc -> (n, t) :: acc) buckets []

  (** Mean duration (ms) of the op and write spans named [name]; 0 if none. *)
  let mean_ms name =
    let l = List.filter (fun s -> s.name = name && s.root <> "replay") !spans in
    match l with
    | [] -> 0.0
    | _ -> List.fold_left (fun a s -> a +. dur s) 0.0 l /. float_of_int (List.length l)

  let write_jsonl path =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\":%d,\"parent\":%d,\"op\":%d,\"root\":%S,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
          s.id s.parent s.op s.root s.name s.t0 s.t1)
      (List.rev !spans);
    close_out oc
end

(* -- runtime layer ------------------------------------------------------ *)

(** GC pauses from the runtime's own event rings: every minor collection
    and major slice, on every domain, as begin/end pairs. *)
module Gc_pauses = struct
  let started = ref false
  let cursor = ref None
  let open_at : (int * Runtime_events.runtime_phase, int64) Hashtbl.t = Hashtbl.create 8
  let max_ms = ref 0.0
  let total_ms = ref 0.0

  let is_pause = function
    | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
    | _ -> false

  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun ring ts ph ->
        if is_pause ph then
          Hashtbl.replace open_at (ring, ph) (Runtime_events.Timestamp.to_int64 ts))
      ~runtime_end:(fun ring ts ph ->
        match Hashtbl.find_opt open_at (ring, ph) with
        | Some t0 ->
          Hashtbl.remove open_at (ring, ph);
          let ms =
            Int64.to_float (Int64.sub (Runtime_events.Timestamp.to_int64 ts) t0) /. 1e6
          in
          total_ms := !total_ms +. ms;
          if ms > !max_ms then max_ms := ms
        | None -> ())
      ()

  let start () =
    if not !started then begin
      Runtime_events.start ();
      cursor := Some (Runtime_events.create_cursor None);
      started := true
    end

  let poll () =
    match !cursor with
    | Some c -> ignore (Runtime_events.read_poll c callbacks None : int)
    | None -> ()

  let reset () =
    poll ();
    max_ms := 0.0;
    total_ms := 0.0
end

(** VmHWM of this process in MB (0 where /proc is unavailable). *)
let peak_rss_mb () =
  try
    In_channel.with_open_text "/proc/self/status" @@ fun ic ->
    let rec scan () =
      match In_channel.input_line ic with
      | None -> 0.0
      | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
      | Some _ -> scan ()
    in
    scan ()
  with _ -> 0.0

(* -- report ------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let metrics_json (l : metric list) =
  "{"
  ^ String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (json_float x.value) x.unit_)
         l)
  ^ "}"
