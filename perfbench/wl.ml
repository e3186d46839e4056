(** The workloads.  Each builds its database and inputs from the
    seed, then exposes one closed-loop op; see README.md for why each
    exists and what it stresses. *)

open Common
module Db = Engine.Database
module H = Xnf.Hetstream
module XC = Xnf.Xnf_compile
module Ws = Cocache.Workspace
module Cursor = Cocache.Cursor
module Exec = Executor.Exec
module Snapshot = Relcore.Snapshot
module Tuple = Relcore.Tuple
module Value = Relcore.Value
module Rng = Workloads.Rng

type scale = Full | Tiny

type t = {
  warmup : int; (* ops run before the clock starts *)
  round : int; (* ops per unit that must not be cut (a wire round) *)
  before_round : int -> unit; (* untimed step before round [r]'s first op *)
  op : int -> int; (* items delivered by op [i]; raises on failure *)
  after_round : int -> unit; (* untimed step after round [r]'s last op *)
  wrong : int ref; (* ops found wrong by inline checks *)
  verify : unit -> int; (* post-run checks: ops found wrong *)
  writes : Samples.t; (* write-statement latency, ms *)
  counters : unit -> (string * float) list; (* workload-owned counters *)
  teardown : unit -> unit;
}

(* Layer tallies gathered while tracing. *)
let visits = ref 0 (* CO cache nodes visited by walks/traversals *)
let replay_rows_scanned = ref 0
let replay_execs = ref 0

let ms_since t0 = secs_between t0 (now_ns ()) *. 1000.0

(* -- replay: the stage functions behind one hidden call ------------------ *)

let replay_compile db text =
  let ast = Trace.span "xnf.parse" (fun () -> Xnf.Xnf_parser.parse text) in
  let op =
    Trace.span "xnf.semantic" (fun () -> Xnf.Xnf_semantic.analyze (Db.catalog db) ast)
  in
  let outputs =
    Trace.span "xnf.rewrite" (fun () ->
        Xnf.Xnf_rewrite.output_boxes (Xnf.Xnf_rewrite.rewrite op))
  in
  ignore
    (Trace.span "starq.rewrite" (fun () -> Starq.Engine.run (List.map snd outputs))
      : Starq.Engine.stats);
  ignore
    (Trace.span "optimizer.plan" (fun () ->
         Optimizer.Planner.compile_many ~share:true outputs)
      : (string * Optimizer.Plan.compiled) list)

let replay_extract ?snapshot (c : XC.compiled) =
  let ctx = Exec.make_ctx ~result_cache:false ?snapshot () in
  let s =
    Trace.span "xnf.assemble" (fun () ->
        XC.assemble c (fun name ->
            Trace.span "executor.exec" (fun () ->
                Exec.run_batches ~ctx (List.assoc name c.XC.plans))))
  in
  replay_rows_scanned := !replay_rows_scanned + ctx.Exec.rows_scanned;
  incr replay_execs;
  s

(* Replay every [replay_every]-th traced call of a hidden call, at most
   [max_replays] times each. *)
let replay_every = 4
let max_replays = 200
let calls : (string, int) Hashtbl.t = Hashtbl.create 8

(** A hidden call: traced as one span named [kind]; on sampled calls its
    input is queued for replay through [stages]. *)
let hidden ~kind ~stages f =
  let r = Trace.span kind f in
  if !Trace.on then begin
    let n = Option.value (Hashtbl.find_opt calls kind) ~default:0 in
    Hashtbl.replace calls kind (n + 1);
    if n mod replay_every = 0 && n / replay_every < max_replays then
      Trace.replay ~kind ~real_ns:(Trace.last_ns kind) stages
  end;
  r

(** Compile and extract a CO as an application would: the compiled-query
    cache, then the result cache; each call traced as a hidden call. *)
let extract db text =
  let c =
    hidden ~kind:"xnf.compile"
      ~stages:(fun () -> replay_compile db text)
      (fun () -> XC.compile db text)
  in
  hidden ~kind:"xnf.extract"
    ~stages:(fun () -> ignore (replay_extract c : H.t))
    (fun () -> XC.extract c)

(* -- output checks -------------------------------------------------------- *)

(** Per-component row lists of a stream, in the shape
    {!Xnf.Sql_derivation.extract} delivers them: node rows, and for each
    connection the parent row followed by the child rows. *)
let component_rows (s : H.t) : (string * Tuple.t list) list =
  let comps = s.H.header.H.components in
  let by_id = Hashtbl.create 1024 in
  let acc = Array.make (Array.length comps) [] in
  List.iter
    (function
      | H.Row { comp; id; values } ->
        Hashtbl.replace by_id id values;
        acc.(comp) <- values :: acc.(comp)
      | H.Conn _ -> ())
    s.H.items;
  List.iter
    (function
      | H.Conn { rel; parent; children; _ } ->
        let row =
          Array.concat
            (Hashtbl.find by_id parent
            :: List.map (Hashtbl.find by_id) (Array.to_list children))
        in
        acc.(rel) <- row :: acc.(rel)
      | H.Row _ -> ())
    s.H.items;
  Array.to_list
    (Array.mapi (fun i (ci : H.comp_info) -> (ci.H.comp_name, acc.(i))) comps)

(** Row-for-row agreement of a stream with reference component rows. *)
let agrees (expect : (string * Tuple.t list) list) (s : H.t) =
  let got = component_rows s in
  List.length expect = List.length got
  && List.for_all
       (fun (name, rows) ->
         let ok =
           match List.assoc_opt name got with
           | Some g ->
             (* the reference may repeat rows; the stream must not *)
             List.equal Tuple.equal (List.sort_uniq Tuple.compare rows)
               (List.sort Tuple.compare g)
           | None -> false
         in
         if not ok then
           Printf.eprintf "component %s disagrees with its reference (%d rows)\n%!"
             name (List.length rows);
         ok)
       expect

(* Sampled timed ops (op [warmup] onwards), kept for checking after the
   clock stops. *)
let keep_every = 97
let max_kept = 6

let keep ~warmup kept i x =
  let j = i - warmup in
  if j >= 0 && j mod keep_every = 0 && List.length !kept < max_kept then kept := x :: !kept

let no_round (_ : int) = ()

let plan_counters db () =
  let s = Db.cache_stats db in
  [ ("plan_hits", float_of_int s.Db.plan_hits); ("plan_misses", float_of_int s.Db.plan_misses) ]

(* -- shop: checkout -------------------------------------------------------- *)

let shop_params scale seed =
  match scale with
  | Full ->
    {
      Workloads.Shop.n_customers = 20_000;
      orders_per_customer = 4;
      items_per_order = 5;
      n_products = 2_000;
      region = "EMEA";
      seed;
    }
  | Tiny ->
    {
      Workloads.Shop.n_customers = 200;
      orders_per_customer = 4;
      items_per_order = 5;
      n_products = 50;
      region = "EMEA";
      seed;
    }

(** One customer's CO: customer -> orders -> line items -> products. *)
let checkout_text cid =
  Printf.sprintf
    "OUT OF xcust AS (SELECT * FROM customer WHERE cid = %d), xorder AS orders, \
     xitem AS lineitem, xproduct AS product, placed AS (RELATE xcust VIA PLACED, \
     xorder WHERE xcust.cid = xorder.ocid), orderline AS (RELATE xorder VIA \
     CONTAINS, xitem WHERE xorder.oid = xitem.lioid), itemref AS (RELATE xitem \
     VIA REFERS_TO, xproduct WHERE xitem.lipid = xproduct.pid) TAKE *"
    cid

(** The checkout CO fetched navigationally, one single-table SELECT per
    parent row.  [Xnf.Sql_derivation.extract] cannot serve here: its
    line-item query nests one correlated EXISTS inside another, and the
    NF rewrite drops the inner correlation (every line item qualifies);
    see README.md. *)
let checkout_reference db cid =
  let q fmt = Printf.ksprintf (Db.query_rows ~cache:false db) fmt in
  let int_at i (row : Tuple.t) =
    match row.(i) with Value.Int n -> n | _ -> failwith "integer key expected"
  in
  let pairs parents child = List.concat_map (fun p -> List.map (fun c -> (p, c)) (child p)) parents in
  let cust = q "SELECT * FROM customer WHERE cid = %d" cid in
  let placed = pairs cust (fun c -> q "SELECT * FROM orders WHERE ocid = %d" (int_at 0 c)) in
  let orderline =
    pairs (List.map snd placed) (fun o -> q "SELECT * FROM lineitem WHERE lioid = %d" (int_at 0 o))
  in
  let itemref =
    pairs (List.map snd orderline) (fun it -> q "SELECT * FROM product WHERE pid = %d" (int_at 1 it))
  in
  let joined l = List.map (fun (p, c) -> Array.append p c) l in
  [
    ("xcust", cust);
    ("xorder", List.map snd placed);
    ("xitem", List.map snd orderline);
    ("xproduct", List.map snd itemref);
    ("placed", joined placed);
    ("orderline", joined orderline);
    ("itemref", joined itemref);
  ]

(* Customer -> orders -> line items -> product, touching one field. *)
let walk_checkout ws =
  let n = ref 0 in
  Cursor.iter
    (fun c ->
      incr n;
      Cursor.iter
        (fun o ->
          incr n;
          Cursor.iter
            (fun it ->
              incr n;
              Cursor.iter
                (fun p ->
                  incr n;
                  ignore (Ws.get ws p "pname" : Value.t))
                (Cursor.open_children it ~rel:"itemref"))
            (Cursor.open_children o ~rel:"orderline"))
        (Cursor.open_children c ~rel:"placed"))
    (Cursor.open_component ws "xcust");
  !n

let n_inputs = 1 lsl 17

let checkout scale seed =
  let p = shop_params scale seed in
  let db = Workloads.Shop.generate p in
  let rng = Rng.create (seed + 1) in
  let cids = Array.init n_inputs (fun _ -> 1 + Rng.int rng p.Workloads.Shop.n_customers) in
  let kept = ref [] in
  let warmup = match scale with Full -> 4500 | Tiny -> 50 in
  let op i =
    let cid = cids.(i land (n_inputs - 1)) in
    let s = extract db (checkout_text cid) in
    let ws = Trace.span "cocache.ws_build" (fun () -> Ws.of_stream s) in
    let n = Trace.span "cocache.walk" (fun () -> walk_checkout ws) in
    if !Trace.on then visits := !visits + n;
    keep ~warmup kept i (cid, s);
    H.total_items s
  in
  {
    warmup;
    round = 1;
    before_round = no_round;
    op;
    after_round = no_round;
    wrong = ref 0;
    verify =
      (fun () ->
        List.length
          (List.filter (fun (cid, s) -> not (agrees (checkout_reference db cid) s)) !kept));
    writes = Samples.create ();
    counters = plan_counters db;
    teardown = ignore;
  }

(* -- OO1: band_extract and oo1_refresh ------------------------------------ *)

let oo1_params scale seed =
  { Workloads.Oo1.default with n_parts = (match scale with Full -> 20_000 | Tiny -> 500); seed }

(** Parts whose [pid] lies in [lo, hi), with the parts they connect to.
    Parts are loaded in [pid] order, so colstore zone maps prune all but
    the band's chunks of [parts]. *)
let band_text lo hi =
  Printf.sprintf
    "OUT OF xpart AS (SELECT * FROM parts WHERE pid >= %d AND pid < %d), \
     xlinked AS parts, link AS (RELATE xpart VIA SRC, xlinked USING conns c \
     WHERE src.pid = c.cfrom AND c.cto = xlinked.pid) TAKE *"
    lo hi

let band_extract scale seed =
  let params = oo1_params scale seed in
  let db = Workloads.Oo1.generate params in
  let n_parts = params.Workloads.Oo1.n_parts in
  let width = n_parts / 20 in
  let rng = Rng.create (seed + 1) in
  let los = Array.init n_inputs (fun _ -> 1 + Rng.int rng (n_parts - width)) in
  let kept = ref [] in
  let warmup = match scale with Full -> 150 | Tiny -> 20 in
  let op i =
    let lo = los.(i land (n_inputs - 1)) in
    let text = band_text lo (lo + width) in
    let s = extract db text in
    ignore (Trace.span "cocache.ws_build" (fun () -> Ws.of_stream s) : Ws.t);
    keep ~warmup kept i (text, s);
    H.total_items s
  in
  {
    warmup;
    round = 1;
    before_round = no_round;
    op;
    after_round = no_round;
    wrong = ref 0;
    verify =
      (fun () ->
        List.length (List.filter (fun (text, s) ->
               not (agrees (Xnf.Sql_derivation.extract db (Xnf.Xnf_parser.parse text)) s)) !kept));
    writes = Samples.create ();
    counters = plan_counters db;
    teardown = ignore;
  }

let traversals = 20

let traverse_all index from =
  Array.fold_left (fun a pid -> a + Workloads.Oo1.traverse (Hashtbl.find index pid) ~depth:7) 0 from

let oo1_refresh scale seed =
  let params = oo1_params scale seed in
  let n_parts = params.Workloads.Oo1.n_parts in
  let db = Workloads.Oo1.generate params in
  let text = Workloads.Oo1.parts_graph_query in
  (* the cached CO of the whole graph *)
  ignore (XC.run db text : H.t);
  let rng = Rng.create (seed + 1) in
  let upd = Array.init n_inputs (fun _ -> (1 + Rng.int rng n_parts, Rng.int rng 100_000)) in
  let starts = Array.init n_inputs (fun _ -> 1 + Rng.int rng n_parts) in
  let writes = Samples.create () in
  let last = ref None in
  let op i =
    let pid, x = upd.(i land (n_inputs - 1)) in
    let t0 = now_ns () in
    (match
       Trace.span "engine.dml" (fun () ->
           Db.exec db (Printf.sprintf "UPDATE parts SET x = %d WHERE pid = %d" x pid))
     with
    | Db.Affected 1 -> ()
    | _ -> failwith "UPDATE did not affect exactly one part");
    Samples.add writes (ms_since t0);
    let c = Trace.span "engine.plan_lookup" (fun () -> XC.compile db text) in
    let s = Trace.span "ivm.refresh" (fun () -> XC.extract c) in
    let index =
      Trace.span "cocache.ws_build" (fun () ->
          Workloads.Oo1.build_pid_index (Ws.of_stream s))
    in
    let from = Array.init traversals (fun k -> starts.(((i * traversals) + k) land (n_inputs - 1))) in
    let total = Trace.span "cocache.walk" (fun () -> traverse_all index from) in
    if !Trace.on then visits := !visits + total;
    last := Some (s, from, total);
    H.total_items s
  in
  let verify () =
    match !last with
    | None -> 0
    | Some (s, from, total) ->
      let cold = XC.run ~cache:false db text in
      let fresh = traverse_all (Workloads.Oo1.build_pid_index (Ws.of_stream cold)) from in
      if H.equal s cold && fresh = total then 0 else 1
  in
  {
    warmup = (match scale with Full -> 20 | Tiny -> 5);
    round = 1;
    before_round = no_round;
    op;
    after_round = no_round;
    wrong = ref 0;
    verify;
    writes;
    counters = plan_counters db;
    teardown = ignore;
  }

(* -- wire_read (and wire_snapshot) ------------------------------------------ *)

let reads_per_round = 10

(* What the daemon runs for a read: on [wire_snapshot], with a writer's
   transaction open, a snapshot pin, the compile stages, and execution
   over frozen rows; on [wire_read] the same stages over the live rows. *)
let with_snapshot ~pin db f =
  if not pin then f None
  else
    let s = Trace.span "relcore.frozen_rows" (fun () -> Snapshot.pin (Db.catalog db)) in
    Fun.protect
      (fun () ->
        f (Some (fun tb -> Trace.span "relcore.frozen_rows" (fun () -> Snapshot.rows s tb))))
      ~finally:(fun () -> Snapshot.release s)

let replay_point ~pin db sql =
  with_snapshot ~pin db (fun snapshot ->
      let q = Trace.span "sqlkit.parse" (fun () -> Sqlkit.Parser.parse_query_string sql) in
      let g =
        Trace.span "starq.rewrite" (fun () ->
            let g = Starq.Build.build_query (Db.catalog db) q in
            ignore (Starq.Engine.rewrite_graph g : Starq.Engine.stats);
            g)
      in
      let c = Trace.span "optimizer.plan" (fun () -> Optimizer.Planner.compile ~share:true g) in
      let ctx = Exec.make_ctx ~result_cache:false ?snapshot () in
      ignore (Trace.span "executor.exec" (fun () -> Exec.run_batches ~ctx c) : Relcore.Batch.t list))

let replay_co ~pin db text =
  with_snapshot ~pin db (fun snapshot ->
      replay_compile db text;
      (* untimed: only a [compiled] value to assemble against *)
      let c = XC.compile ~cache:false db text in
      ignore (replay_extract ?snapshot c : H.t))

(* A tenth of [checkout]'s shop: a snapshot read rebuilds its tables'
   frozen rows, so its cost grows with the tables, and a run must hold
   enough rounds for steady figures. *)
let wire_params scale seed =
  match scale with
  | Full -> { (shop_params Full seed) with Workloads.Shop.n_customers = 2_000 }
  | Tiny -> shop_params Tiny seed

(** A daemon on a unix socket, a writer and a reader connection.  Each
    round the writer marks one order in a BEGIN/UPDATE/COMMIT transaction
    (untimed steps), and the reader makes [reads_per_round] timed reads.
    [open_txn] (the [wire_snapshot] workload) reads while the writer's
    transaction is open and COMMITs after the reads; then no read may
    see the uncommitted mark.  Otherwise ([wire_read]) the writer
    COMMITs before the reads, and the first point read must see the
    committed mark. *)
let wire ~open_txn ~sock scale seed =
  let p = wire_params scale seed in
  let db = Workloads.Shop.generate p in
  let opc = p.Workloads.Shop.orders_per_customer in
  let n_orders = p.Workloads.Shop.n_customers * opc in
  let cust_of oid = ((oid - 1) / opc) + 1 in
  let rng = Rng.create (seed + 1) in
  let n_rounds = n_inputs / reads_per_round in
  (* One CO read (10% of reads), so p95 falls inside the CO mode, and
     nine point reads of one cost class, so p50 stays inside theirs.  The
     CO read goes first: it takes the cost the first read after a write
     pays, which would otherwise split the point reads in two.  The first
     point read is of the order the writer marks. *)
  let rounds =
    Array.init n_rounds (fun _ ->
        let oid = 1 + Rng.int rng n_orders in
        let point o = `Point (Printf.sprintf "SELECT * FROM orders WHERE oid = %d" o) in
        ( oid,
          Array.append
            [| `Co (checkout_text (cust_of oid)); point oid |]
            (Array.init 8 (fun _ -> point (1 + Rng.int rng n_orders))) ))
  in
  (try Sys.remove sock with Sys_error _ -> ());
  let server =
    Net.Server.create ~config:(Net.Server.default_config ~addr:(Unix.ADDR_UNIX sock) ()) db
  in
  let serving = Domain.spawn (fun () -> Net.Server.serve server) in
  let writer = Net.Client.connect ~client_name:"writer" (Unix.ADDR_UNIX sock) in
  let reader = Net.Client.connect ~client_name:"reader" (Unix.ADDR_UNIX sock) in
  let writes = Samples.create () in
  let wrong = ref 0 in
  let marker r = Printf.sprintf "mark-%d" r in
  let marked r = Array.exists (function Value.Str s -> String.equal s (marker r) | _ -> false) in
  let stmt kind sql = Trace.span kind (fun () -> Net.Client.exec writer sql) in
  let commit () = ignore (stmt "engine.commit" "COMMIT" : Net.Client.exec_result) in
  (* every [sample_every]-th round: in-process reads of the committed
     state, taken while no transaction is open *)
  let sample_every = 8 in
  let expected = ref None in
  let last_round = ref (-1) in
  let sample r reads =
    expected :=
      if r mod sample_every <> 0 then None
      else
        Some
          (Array.map
             (function
               | `Point sql -> `Rows (Db.query_rows ~cache:false db sql)
               | `Co text -> `Stream (XC.run ~cache:false db text))
             reads)
  in
  (* The writes are a round's untimed steps: BEGIN and the marking UPDATE
     before its reads, COMMIT before or after them. *)
  let before_round r =
    let oid, reads = rounds.(r mod n_rounds) in
    last_round := r;
    if open_txn then sample r reads;
    ignore (stmt "engine.begin" "BEGIN" : Net.Client.exec_result);
    let t0 = now_ns () in
    (match
       stmt "engine.dml"
         (Printf.sprintf "UPDATE orders SET status = '%s' WHERE oid = %d" (marker r) oid)
     with
    | Net.Client.Affected 1 -> ()
    | _ -> failwith "UPDATE did not affect exactly one order");
    Samples.add writes (ms_since t0);
    if not open_txn then begin
      commit ();
      sample r reads
    end
  in
  let after_round (_ : int) = if open_txn then commit () in
  (* a read of round [r] is wrong if it shows the mark while the writer's
     transaction is open, or, once committed, if the marked order's read
     ([k = 1]) does not *)
  let mark_wrong r k rows =
    if open_txn then List.exists (marked r) rows
    else k = 1 && not (List.exists (marked r) rows)
  in
  let op i =
    let r = i / reads_per_round and k = i mod reads_per_round in
    let _, reads = rounds.(r mod n_rounds) in
    match (reads.(k), Option.map (fun e -> e.(k)) !expected) with
    | `Point sql, exp ->
      let rows =
        hidden ~kind:"net.point_read"
          ~stages:(fun () -> replay_point ~pin:open_txn db sql)
          (fun () -> Net.Client.query_rows reader sql)
      in
      let sorted l = List.sort Tuple.compare l in
      if
        mark_wrong r k rows
        ||
        match exp with
        | Some (`Rows x) -> not (List.equal Tuple.equal (sorted x) (sorted rows))
        | _ -> false
      then begin
        let show l =
          String.concat "; "
            (List.map (fun t -> String.concat "," (Array.to_list (Array.map Value.to_string t))) l)
        in
        Printf.eprintf "wire op %d: %s returned %s%s\n%!" i sql (show rows)
          (match exp with Some (`Rows x) -> ", committed state " ^ show x | _ -> "");
        incr wrong
      end;
      List.length rows
    | `Co text, exp ->
      let s =
        hidden ~kind:"net.co_read"
          ~stages:(fun () -> replay_co ~pin:open_txn db text)
          (fun () -> Net.Client.extract reader text)
      in
      if
        (open_txn
        && List.exists (function H.Row { values; _ } -> marked r values | H.Conn _ -> false) s.H.items)
        || match exp with Some (`Stream x) -> not (H.equal x s) | _ -> false
      then begin
        Printf.eprintf "wire op %d: CO read disagrees (%d items)\n%!" i (H.total_items s);
        incr wrong
      end;
      H.total_items s
  in
  let teardown () =
    Net.Client.close reader;
    Net.Client.close writer;
    Net.Server.stop server;
    Domain.join serving;
    try Sys.remove sock with Sys_error _ -> ()
  in
  let verify () =
    (* the last committed marker is visible once committed *)
    if !last_round < 0 then 0
    else begin
      let oid, _ = rounds.(!last_round mod n_rounds) in
      match
        Net.Client.query_rows reader
          (Printf.sprintf "SELECT status FROM orders WHERE oid = %d" oid)
      with
      | [ [| Value.Str s |] ] when String.equal s (marker !last_round) -> 0
      | _ ->
        prerr_endline "wire: the last committed marker is not visible";
        1
    end
  in
  let counters () =
    let c = Net.Server.counters server in
    let f = float_of_int in
    [
      ("net.bytes", f (Net.Client.bytes_in reader + Net.Client.bytes_out reader
                       + Net.Client.bytes_in writer + Net.Client.bytes_out writer));
      ("net.frames", f (Net.Client.frames_in reader + Net.Client.frames_out reader
                        + Net.Client.frames_in writer + Net.Client.frames_out writer));
      ("net.memo_hits", f c.Net.Server.memo_hits);
      ("snap_reads", f c.Net.Server.snap_reads);
      ("gc_batches", f c.Net.Server.gc_batches);
      ("gc_commits", f c.Net.Server.gc_commits);
      ("reads", f (c.Net.Server.queries + c.Net.Server.extracts));
    ]
    @ plan_counters db ()
  in
  {
    warmup = (match scale with Full -> 10 * reads_per_round | Tiny -> 2 * reads_per_round);
    round = reads_per_round;
    before_round;
    op;
    after_round;
    wrong;
    verify;
    writes;
    counters;
    teardown;
  }
