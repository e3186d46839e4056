(** xnfbench: one workload, one fresh process.

    xnfbench.exe --workload W --seed N --seconds S --trace 0|1
                 [--scale full|tiny] [--setup-only] [--out DIR]

    Prints a metadata line, then as its last line one JSON object with
    [correct], [attempted], [failed] and [metrics]: the end-to-end
    metrics untraced, the per-layer metrics traced.  [perfbench/run.py]
    builds this program and turns its output into the benchmark's. *)

open Common

let usage () =
  prerr_endline
    "usage: xnfbench.exe --workload W --seed N --seconds S --trace 0|1 \
     [--scale full|tiny] [--setup-only] [--out DIR]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  scale : Wl.scale;
  setup_only : bool;
  out : string;
}

let parse_args () =
  let a =
    ref
      {
        workload = "";
        seed = 1;
        seconds = 10.0;
        trace = false;
        scale = Wl.Full;
        setup_only = false;
        out = "perfbench/_out";
      }
  in
  let rec go = function
    | "--workload" :: w :: tl -> a := { !a with workload = w }; go tl
    | "--seed" :: n :: tl -> a := { !a with seed = int_of_string n }; go tl
    | "--seconds" :: s :: tl -> a := { !a with seconds = float_of_string s }; go tl
    | "--trace" :: t :: tl -> a := { !a with trace = t = "1" }; go tl
    | "--scale" :: "full" :: tl -> a := { !a with scale = Wl.Full }; go tl
    | "--scale" :: "tiny" :: tl -> a := { !a with scale = Wl.Tiny }; go tl
    | "--setup-only" :: tl -> a := { !a with setup_only = true }; go tl
    | "--out" :: d :: tl -> a := { !a with out = d }; go tl
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  !a

let make (a : args) =
  match a.workload with
  | "checkout" -> Wl.checkout a.scale a.seed
  | "band_extract" -> Wl.band_extract a.scale a.seed
  | "oo1_refresh" -> Wl.oo1_refresh a.scale a.seed
  | ("wire_read" | "wire_snapshot") as w ->
    (* wire_snapshot is not in BENCHMARK.json: it reproduces a defect
       (see README.md), so only this program runs it *)
    Wl.wire ~open_txn:(w = "wire_snapshot")
      ~sock:(Filename.concat a.out (Printf.sprintf "s%d.sock" (Unix.getpid ())))
      a.scale a.seed
  | w ->
    Printf.eprintf "unknown workload %S\n" w;
    exit 2

(* -- process-wide counters, read from outside the layers ---------------- *)

let counters (w : Wl.t) =
  let rc = Executor.Result_cache.stats () in
  let cs = Relcore.Colstore.totals and jf = Relcore.Bloom.totals in
  let ivm = Xnf.Xnf_ivm.stats in
  let gc = Gc.quick_stat () in
  let f = float_of_int in
  [
    ("rc.hits", f rc.Executor.Result_cache.hits);
    ("rc.misses", f rc.Executor.Result_cache.misses);
    ("rc.evictions", f rc.Executor.Result_cache.evictions);
    ("cs.scanned", f cs.Relcore.Colstore.chunks_scanned);
    ("cs.skipped", f cs.Relcore.Colstore.chunks_skipped);
    ("jf.rows_skipped", f jf.Relcore.Bloom.rows_skipped);
    ("ivm.maintained", f ivm.Xnf.Xnf_ivm.maintained);
    ("snapshot.fallbacks", f (Relcore.Snapshot.fallbacks ()));
    ("gc.minor_words", gc.Gc.minor_words);
    ("gc.major", f gc.Gc.major_collections);
  ]
  @ w.Wl.counters ()

(* -- the closed loop ------------------------------------------------------ *)

type tally = {
  lat : Samples.t; (* per-op latency, ms *)
  op_items : Samples.t; (* items each op delivered *)
  completed : Samples.t; (* 1 for each op that returned, 0 if it raised *)
  mutable ops : int;
  mutable failed : int;
  mutable secs : float;
}

(* enough timed ops that p95 has at least ten samples beyond it *)
let min_ops = 200

let tally () =
  {
    lat = Samples.create ();
    op_items = Samples.create ();
    completed = Samples.create ();
    ops = 0;
    failed = 0;
    secs = 0.0;
  }

let next_op = ref 0

(** Op [i] with the round steps around it, which run with the clock
    paused, as do the replays its hidden calls queued.  Returns the op's
    items and its latency in ms. *)
let step (w : Wl.t) i =
  let r = i / w.Wl.round in
  Trace.cur_op := i;
  if i mod w.Wl.round = 0 then paused (fun () -> Trace.span "write" (fun () -> w.Wl.before_round r));
  let q0 = !paused_ns in
  let t0 = now_ns () in
  let res = match Trace.span "op" (fun () -> w.Wl.op i) with n -> Ok n | exception e -> Error e in
  let t1 = now_ns () in
  let lat = (secs_between t0 t1 -. (Int64.to_float (Int64.sub !paused_ns q0) /. 1e9)) *. 1000.0 in
  Trace.run_pending ();
  if (i + 1) mod w.Wl.round = 0 then paused (fun () -> Trace.span "write" (fun () -> w.Wl.after_round r));
  match res with Ok n -> (n, lat) | Error e -> raise e

(** Run ops back to back for [secs] of measuring-clock time (round steps,
    checks and replays excluded) and at least [min_ops] ops, ending on a
    round boundary. *)
let slice (w : Wl.t) ~traced ~min_ops secs (t : tally) =
  Trace.on := traced;
  let start = now_ns () and p0 = !paused_ns in
  let elapsed () = secs_between start (now_ns ()) -. (Int64.to_float (Int64.sub !paused_ns p0) /. 1e9) in
  let n0 = t.ops in
  while elapsed () < secs || t.ops - n0 < min_ops || !next_op mod w.Wl.round <> 0 do
    let i = !next_op in
    incr next_op;
    let n, ok =
      match step w i with
      | n, lat ->
        Samples.add t.lat lat;
        (n, 1.0)
      | exception e ->
        t.failed <- t.failed + 1;
        Printf.eprintf "op %d failed: %s\n%!" i (Printexc.to_string e);
        (0, 0.0)
    in
    Samples.add t.op_items (float_of_int n);
    Samples.add t.completed ok;
    t.ops <- t.ops + 1;
    if traced then Gc_pauses.poll ()
  done;
  Trace.on := false;
  t.secs <- t.secs +. elapsed ()

(* -- report ---------------------------------------------------------------- *)

let env_knobs () =
  Array.to_list (Unix.environment ())
  |> List.filter (fun kv -> String.length kv > 6 && String.sub kv 0 6 = "XNFDB_")
  |> List.sort compare

let meta_line (a : args) =
  Printf.sprintf
    "{\"meta\": {\"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %b, \
     \"scale\": %S, \"host_cores\": %d, \"ocaml\": %S, \"xnfdb_env\": [%s]}}"
    a.workload a.seed a.seconds a.trace
    (match a.scale with Wl.Full -> "full" | Wl.Tiny -> "tiny")
    (Domain.recommended_domain_count ()) Sys.ocaml_version
    (String.concat ", " (List.map (Printf.sprintf "%S") (env_knobs ())))

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    correct attempted failed (metrics_json metrics)

let delta before after name =
  match (List.assoc_opt name before, List.assoc_opt name after) with
  | Some b, Some a -> a -. b
  | _ -> 0.0

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Rates are over the whole measured run: its load drifts (wire_read's
   result cache fills for ~25 s), so a median over parts of the run
   would land on an arbitrary point of the drift. *)
let e2e_metrics ~setup_s (t : tally) (w : Wl.t) =
  let ops_per_s = ratio (Samples.sum t.completed) t.secs in
  let items_per_s = ratio (Samples.sum t.op_items) t.secs in
  [
    m "setup_s" "s" setup_s;
    m "ops_per_s" "1/s" ops_per_s;
    m "op_ms_p50" "ms" (Samples.percentile t.lat 50.0);
    m "op_ms_p95" "ms" (Samples.percentile t.lat 95.0);
    m "items_per_s" "1/s" items_per_s;
    m "peak_rss_mb" "MB" (peak_rss_mb ());
    m "write_ms_p50" "ms" (Samples.percentile w.Wl.writes 50.0);
    m "op_samples" "count" (float_of_int (Samples.count t.lat));
    m "write_samples" "count" (float_of_int (Samples.count w.Wl.writes));
  ]

let layer_metrics ~(untraced : tally) ~(traced : tally) ~before ~after (w : Wl.t) =
  let d = delta before after in
  let ops = float_of_int (untraced.ops + traced.ops) in
  let buckets = Trace.attribute () in
  let n_traced = float_of_int traced.ops in
  let bucket n = Option.value (List.assoc_opt n buckets) ~default:0.0 in
  let per_op_ms n = ratio (bucket n) n_traced in
  (* self time per timed op *)
  let stage_names =
    [
      "sqlkit.parse"; "xnf.parse"; "xnf.semantic"; "xnf.rewrite"; "starq.rewrite";
      "optimizer.plan"; "engine.plan_lookup"; "executor.exec"; "relcore.frozen_rows";
      "xnf.assemble"; "ivm.refresh"; "cocache.ws_build"; "cocache.walk"; "unattributed";
    ]
  in
  (* latency per statement, inside an op or in a round step *)
  let statement_names = [ "engine.dml"; "engine.begin"; "engine.commit" ] in
  let attributed = List.fold_left (fun a (_, t) -> a +. t) 0.0 buckets in
  (* the traced ops' latency by the loop's own clock, outside the spans *)
  let measured = Samples.sum traced.lat in
  let net_kinds = [ "net.point_read"; "net.co_read" ] in
  let net_spans =
    List.filter (fun (s : Trace.span) -> s.Trace.root = "op" && List.mem s.Trace.name net_kinds) !Trace.spans
  in
  let rtt = ratio (List.fold_left (fun a s -> a +. Trace.dur s) 0.0 net_spans) (float_of_int (List.length net_spans)) in
  let selfs = Trace.self_times !Trace.spans in
  let replay_total op =
    List.fold_left
      (fun a ((s : Trace.span), self) ->
        if s.Trace.root = "replay" && s.Trace.op = op && s.Trace.name <> "replay" then a +. self
        else a)
      0.0 selfs
  in
  (* RTT minus the replayed stages, averaged per kind over its samples
     and weighted by the kind's share of the read spans, as [rtt] is *)
  let overhead =
    List.fold_left
      (fun acc kind ->
        let ss = List.filter (fun (s : Trace.sample) -> s.Trace.kind = kind) !Trace.samples in
        let mean =
          ratio
            (List.fold_left
               (fun a (s : Trace.sample) ->
                 a +. (Int64.to_float s.Trace.real_ns /. 1e6) -. replay_total s.Trace.replay_op)
               0.0 ss)
            (float_of_int (List.length ss))
        in
        let n = List.length (List.filter (fun (s : Trace.span) -> s.Trace.name = kind) net_spans) in
        acc +. (mean *. ratio (float_of_int n) (float_of_int (List.length net_spans))))
      0.0 net_kinds
  in
  let untraced_rate = ratio (float_of_int untraced.ops) untraced.secs in
  let traced_rate = ratio (float_of_int traced.ops) traced.secs in
  List.map (fun n -> m (n ^ "_ms") "ms" (per_op_ms n)) stage_names
  @ List.map (fun n -> m (n ^ "_ms") "ms" (Trace.mean_ms n)) statement_names
  @ [
      m "trace.op_ms" "ms" (ratio measured n_traced);
      m "trace.sum_frac" "frac" (ratio attributed measured);
      m "trace.overhead_frac" "frac" (1.0 -. ratio traced_rate untraced_rate);
      m "engine.plan_cache_hit_frac" "frac" (ratio (d "plan_hits") (d "plan_hits" +. d "plan_misses"));
      m "engine.gc_batch_size" "count" (ratio (d "gc_commits") (d "gc_batches"));
      m "executor.rows_scanned_per_op" "count"
        (ratio (float_of_int !Wl.replay_rows_scanned) (float_of_int !Wl.replay_execs));
      m "result_cache.hit_frac" "frac" (ratio (d "rc.hits") (d "rc.hits" +. d "rc.misses"));
      m "result_cache.evictions_per_op" "count" (ratio (d "rc.evictions") ops);
      m "result_cache.entries" "count"
        (float_of_int (Executor.Result_cache.stats ()).Executor.Result_cache.entries);
      m "relcore.chunks_skipped_frac" "frac" (ratio (d "cs.skipped") (d "cs.skipped" +. d "cs.scanned"));
      m "relcore.jf_rows_skipped_per_op" "count" (ratio (d "jf.rows_skipped") ops);
      m "relcore.snapshot_reads_frac" "frac" (ratio (d "snap_reads") (d "reads"));
      m "relcore.snapshot_fallbacks" "count" (d "snapshot.fallbacks");
      m "ivm.maintained_frac" "frac" (ratio (d "ivm.maintained") ops);
      m "cocache.visits_per_s" "1/s" (ratio (float_of_int !Wl.visits) (bucket "cocache.walk" /. 1000.0));
      m "net.rtt_ms" "ms" rtt;
      m "net.overhead_ms" "ms" overhead;
      m "net.bytes_per_op" "B" (ratio (d "net.bytes") ops);
      m "net.frames_per_op" "count" (ratio (d "net.frames") ops);
      m "net.memo_hits" "count" (d "net.memo_hits");
      m "trace.replays_failed" "count" (float_of_int !Trace.replays_failed);
      m "gc.minor_mb_per_op" "MB" (ratio (d "gc.minor_words" *. 8.0 /. 1048576.0) ops);
      m "gc.major_per_op" "count" (ratio (d "gc.major") ops);
      m "gc.pause_ms_max" "ms" !Gc_pauses.max_ms;
      m "gc.pause_ms_per_op" "ms" (ratio !Gc_pauses.total_ms ops);
      m "write_ms_p50" "ms" (Samples.percentile w.Wl.writes 50.0);
    ]

let () =
  let a = parse_args () in
  if a.workload = "" then usage ();
  (try Unix.mkdir a.out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  print_endline (meta_line a);
  Gc.compact ();
  let t0 = now_ns () in
  let w = make a in
  for i = 0 to w.Wl.warmup - 1 do
    ignore (step w i : int * float)
  done;
  next_op := w.Wl.warmup;
  let setup_s = secs_between t0 (now_ns ()) in
  if a.setup_only then begin
    w.Wl.teardown ();
    print_endline (result_line ~correct:true ~attempted:1 ~failed:0 [ m "setup_s" "s" setup_s ]);
    exit 0
  end;
  Samples.clear w.Wl.writes;
  let untraced = tally () and traced = tally () in
  if a.trace then begin
    Gc_pauses.start ();
    Gc_pauses.reset ()
  end;
  let before = counters w in
  if a.trace then
    (* alternate untraced and traced quarters, so drift hits both alike *)
    List.iter
      (fun tr ->
        slice w ~traced:tr ~min_ops:(min_ops / 4) (a.seconds /. 4.0)
          (if tr then traced else untraced))
      [ false; true; false; true ]
  else slice w ~traced:false ~min_ops a.seconds untraced;
  let after = counters w in
  Gc_pauses.poll ();
  let wrong = !(w.Wl.wrong) + w.Wl.verify () in
  let attempted = untraced.ops + traced.ops in
  let failed = min attempted (untraced.failed + traced.failed + wrong) in
  let metrics =
    if a.trace then layer_metrics ~untraced ~traced ~before ~after w
    else e2e_metrics ~setup_s untraced w
  in
  let metrics =
    metrics @ [ m "op_fail_frac" "frac" (ratio (float_of_int failed) (float_of_int attempted)) ]
  in
  if a.trace then
    Trace.write_jsonl
      (Filename.concat a.out (Printf.sprintf "spans-%s-%d.jsonl" a.workload a.seed));
  w.Wl.teardown ();
  print_endline (result_line ~correct:(failed = 0) ~attempted ~failed metrics)
