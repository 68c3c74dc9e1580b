(* The repository benchmark: one workload per process, one JSON line out.

     bench.exe run   --workload W --seed S --seconds T --trace 0|1 [--smoke] [--trace-out F]
     bench.exe setup --workload W --seed S [--smoke]

   [run] performs the workload's cold set-up, measures for T seconds,
   checks every answer against an independent reference and prints
   {"correct", "attempted", "failed", "setup_s", "e2e", "layers",
   "record"}. [setup] performs only the cold set-up and prints its
   duration; perfbench/run.py runs it in fresh processes so that
   set-up is measured cold several times per run (process-global
   caches — NTT tables, Galois permutations — make a second set-up in
   one process cheaper than the first).

   Every layer is timed from outside, around this file's calls into the
   layer's public functions; with --trace 1 those calls are also
   recorded as spans and written as Chrome trace-event JSON. *)

module B = Eva_core.Builder
module Ir = Eva_core.Ir
module Compile = Eva_core.Compile
module Passes = Eva_core.Passes
module Params = Eva_core.Params
module Validate = Eva_core.Validate
module Analysis = Eva_core.Analysis
module Optimize = Eva_core.Optimize
module Reference = Eva_core.Reference
module Executor = Eva_core.Executor
module N = Eva_tensor.Network
module Nets = Eva_tensor.Networks
module T = Eva_tensor.Tensor
module Parallel = Eva_schedule.Parallel
module Serve = Eva_schedule.Serve
module Wire = Eva_ckks.Wire
module Ctx = Eva_ckks.Context
module Keys = Eva_ckks.Keys
module Eval = Eva_ckks.Eval
module Ntt = Eva_rns.Ntt
module Rowvec = Eva_rns.Rowvec
module Diag = Eva_diag.Diag

let now = Unix.gettimeofday
let nproc = Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0 else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* Samples strictly beyond the nearest-rank 90th percentile of [n]. *)
let beyond_p90 n = n - int_of_float (Float.ceil (0.9 *. float_of_int n))

let sum = List.fold_left ( +. ) 0.0
let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* A span is one timed call into a layer. [parent] is the enclosing
   span (0 at top level) and [req] the inference, request or compile
   job it belongs to (-1 for set-up and probes). Spans stay in memory
   and are written once, at the end of a traced run. *)
type span = { sid : int; name : string; parent : int; req : int; t0 : float; t1 : float }

let tracing = ref false
let span_lock = Mutex.create ()
let spans : span list ref = ref []
let next_sid = Atomic.make 1
let fresh_sid () = Atomic.fetch_and_add next_sid 1

let record ?sid ?(parent = 0) ?(req = -1) name t0 t1 =
  if !tracing then begin
    let sid = match sid with Some s -> s | None -> fresh_sid () in
    Mutex.lock span_lock;
    spans := { sid; name; parent; req; t0; t1 } :: !spans;
    Mutex.unlock span_lock
  end

(* [timed name f] runs [f ()], records it as a span and returns the
   result with its duration in seconds. The duration is measured with
   tracing off too: the end-to-end metrics come from the same clocks. *)
let timed ?parent ?req name f =
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  record ?parent ?req name t0 t1;
  (r, t1 -. t0)

(* Spans whose direct children must account for their wall time. *)
let job_spans = [ "dnn.inference"; "serve.request"; "compile.network" ]

(* Smallest share of a job span's duration covered by the union of its
   direct children, over all job spans (1.0 with no job spans). *)
let min_child_coverage all =
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.add children s.parent s) all;
  List.fold_left
    (fun acc s ->
      if not (List.mem s.name job_spans) then acc
      else
        let kids =
          List.sort compare
            (List.map (fun k -> (Float.max s.t0 k.t0, Float.min s.t1 k.t1)) (Hashtbl.find_all children s.sid))
        in
        let covered, _ =
          List.fold_left
            (fun (acc, reach) (a, b) ->
              let a = Float.max a reach in
              if b > a then (acc +. (b -. a), b) else (acc, reach))
            (0.0, s.t0) kids
        in
        let dur = s.t1 -. s.t0 in
        if dur <= 0.0 then acc else Float.min acc (covered /. dur))
    1.0 all

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event format ("X" complete events, microseconds). Each
   job gets its own track so its spans nest. *)
let write_chrome_trace path all =
  let base = List.fold_left (fun acc s -> Float.min acc s.t0) infinity all in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%s,\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}\n"
        (if i = 0 then "" else ",")
        (json_string s.name) (s.req + 1)
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.sid s.parent s.req)
    (List.sort (fun a b -> compare a.t0 b.t0) all);
  output_string oc "]}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Correctness accounting                                              *)
(* ------------------------------------------------------------------ *)

let checks_run = ref 0
let check_failures : string list ref = ref []

let check cond fmt =
  Printf.ksprintf
    (fun msg ->
      incr checks_run;
      if not cond then check_failures := msg :: !check_failures)
    fmt

(* Precision in bits of a maximum absolute error. *)
let bits err = -.Float.log2 (Float.max err 1e-300)

(* ------------------------------------------------------------------ *)
(* Metric catalogue (must match BENCHMARK.json)                        *)
(* ------------------------------------------------------------------ *)

let e2e_metrics =
  [
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("throughput_per_s", "1/s");
    ("slo_met_ratio", "ratio");
    ("precision_bits", "bits");
    ("modulus_bits", "bits");
    ("keyswitch_nodes", "count");
    ("peak_rss_mb", "MB");
  ]

(* A layer a workload never calls reports 0. *)
let layer_metrics =
  [
    ("frontend.build_s", "s");
    ("compile.validate_input_s", "s");
    ("compile.vectorize_s", "s");
    ("compile.transform_s", "s");
    ("compile.validate_s", "s");
    ("compile.params_s", "s");
    ("compile.nodes_in", "count");
    ("compile.nodes_out", "count");
    ("program.multiplies", "count");
    ("program.relinearizations", "count");
    ("program.rotations", "count");
    ("program.rescales", "count");
    ("program.hoist_groups", "count");
    ("program.keyswitch_decompositions", "count");
    ("executor.context_s", "s");
    ("executor.galois_keys", "count");
    ("executor.encrypt_ms", "ms");
    ("executor.evaluate_ms", "ms");
    ("executor.decrypt_ms", "ms");
    ("executor.peak_live_values", "count");
    ("executor.pt_cache_hit_ratio", "ratio");
    ("op.rotate_ms", "ms");
    ("op.relinearize_ms", "ms");
    ("op.multiply_ms", "ms");
    ("op.rescale_ms", "ms");
    ("op.add_ms", "ms");
    ("op.modswitch_ms", "ms");
    ("parallel.busy_ratio", "ratio");
    ("ckks.ntt_us", "us");
    ("ckks.ks_decompose_us", "us");
    ("ckks.ks_apply_us", "us");
    ("ckks.encode_us", "us");
    ("ckks.encrypt_us", "us");
    ("ckks.decrypt_us", "us");
    ("serve.queue_wait_ms", "ms");
    ("serve.service_ms", "ms");
    ("serve.batch_width_mean", "count");
    ("serve.slot_utilization", "ratio");
    ("serve.executions", "count");
    ("serve.queue_high_water", "count");
    ("serve.generator_lag_ms", "ms");
    ("serve.shed", "count");
    ("serve.cancelled", "count");
    ("wire.request_encode_us", "us");
    ("wire.request_decode_us", "us");
    ("wire.request_bytes", "count");
    ("trace.spans", "count");
    ("trace.job_coverage_min_ratio", "ratio");
    ("trace.latency_p50_ms", "ms");
  ]

(* ------------------------------------------------------------------ *)
(* Shared layer measurements                                           *)
(* ------------------------------------------------------------------ *)

(* Compile.run with its default options, phase by phase, in its order;
   returns the result and each phase's seconds. The vectorize phase
   includes Compile.run's defensive copy of the input. *)
let compile_phases ?parent ?req input =
  let s_f = Passes.default_s_f in
  let (), vi = timed ?parent ?req "compile.validate_input" (fun () -> Validate.check_input_program input) in
  let (program, packing), ve =
    timed ?parent ?req "compile.vectorize" (fun () ->
        let program, packing = Passes.vectorize (Ir.copy input) in
        Option.iter (fun pk -> Validate.check_packing pk program) packing;
        (program, packing))
  in
  let (), tr =
    timed ?parent ?req "compile.transform" (fun () ->
        Passes.transform ~s_f ~policy:Passes.Eva ~eager_relin:false program)
  in
  let (), va = timed ?parent ?req "compile.validate" (fun () -> Validate.check_transformed ~s_f program) in
  let params, pa = timed ?parent ?req "compile.params" (fun () -> Params.select ~s_f program) in
  ( { Compile.program; params; policy = Passes.Eva; s_f; lanes = 1; packing },
    [ ("compile.validate_input_s", vi); ("compile.vectorize_s", ve); ("compile.transform_s", tr);
      ("compile.validate_s", va); ("compile.params_s", pa) ] )

(* Compile through the public driver, or phase by phase when tracing. *)
let compile ?parent ?req input =
  if !tracing then compile_phases ?parent ?req input
  else (fst (timed ?parent ?req "compile.run" (fun () -> Compile.run input)), [])

(* Structural fingerprint of a compiled program: every node's opcode,
   operands and declared scale, plus the selected parameters. Equal
   fingerprints mean equal op counts, modulus and rotation keys. *)
let fingerprint (c : Compile.compiled) =
  let b = Buffer.create (1 lsl 16) in
  List.iter
    (fun n ->
      Buffer.add_string b (string_of_int n.Ir.id);
      Buffer.add_string b (match n.Ir.op with Ir.Constant _ -> "const" | op -> Format.asprintf "%a" Ir.pp_op op);
      Array.iter (fun m -> Buffer.add_string b (Printf.sprintf ",%d" m.Ir.id)) n.Ir.parms;
      Buffer.add_string b (Printf.sprintf "@%d;" n.Ir.decl_scale))
    c.Compile.program.Ir.all_nodes;
  let p = c.Compile.params in
  Buffer.add_string b
    (Printf.sprintf "|%d|%d|%s|%s|%s" p.Params.log_n p.Params.log_q
       (String.concat "," (List.map string_of_int p.Params.context_data_bits))
       (String.concat "," (List.map string_of_int p.Params.special_bits))
       (String.concat "," (List.map string_of_int p.Params.rotations)));
  Digest.to_hex (Digest.string (Buffer.contents b))

type counts = {
  multiplies : int;
  relinearizations : int;
  rotations : int;
  rescales : int;
  hoist_groups : int;
  ks_decompositions : int;
}

(* Ciphertext op counts of a compiled program, read off the IR: the
   executor's op_counts must agree (checked wherever a program runs). *)
let program_counts (c : Compile.compiled) =
  let p = c.Compile.program in
  let types = Analysis.types p in
  let cipher n = Hashtbl.find_opt types n.Ir.id = Some Ir.Cipher in
  let mul = ref 0 and relin = ref 0 and rot = ref 0 and resc = ref 0 in
  List.iter
    (fun n ->
      if cipher n then
        match n.Ir.op with
        | Ir.Multiply -> incr mul
        | Ir.Relinearize -> incr relin
        | Ir.Rotate_left _ | Ir.Rotate_right _ -> incr rot
        | Ir.Rescale _ -> incr resc
        | _ -> ())
    p.Ir.all_nodes;
  let groups = Optimize.rotation_groups p in
  let grouped = List.fold_left (fun acc g -> acc + List.length g.Optimize.hoist_rotations) 0 groups in
  {
    multiplies = !mul;
    relinearizations = !relin;
    rotations = !rot;
    rescales = !resc;
    hoist_groups = List.length groups;
    ks_decompositions = !relin + !rot - grouped + List.length groups;
  }

let add_counts a b =
  {
    multiplies = a.multiplies + b.multiplies;
    relinearizations = a.relinearizations + b.relinearizations;
    rotations = a.rotations + b.rotations;
    rescales = a.rescales + b.rescales;
    hoist_groups = a.hoist_groups + b.hoist_groups;
    ks_decompositions = a.ks_decompositions + b.ks_decompositions;
  }

let counts_layers k =
  [
    ("program.multiplies", float_of_int k.multiplies);
    ("program.relinearizations", float_of_int k.relinearizations);
    ("program.rotations", float_of_int k.rotations);
    ("program.rescales", float_of_int k.rescales);
    ("program.hoist_groups", float_of_int k.hoist_groups);
    ("program.keyswitch_decompositions", float_of_int k.ks_decompositions);
  ]

let check_op_counts what k (oc : Executor.op_counts) =
  check
    (oc.Executor.multiplies = k.multiplies
    && oc.Executor.relinearizations = k.relinearizations
    && oc.Executor.rotations = k.rotations
    && oc.Executor.rescales = k.rescales)
    "%s: executed op counts (mul %d relin %d rot %d rescale %d) differ from the program's (%d %d %d %d)" what
    oc.Executor.multiplies oc.Executor.relinearizations oc.Executor.rotations oc.Executor.rescales k.multiplies
    k.relinearizations k.rotations k.rescales

(* Per-class self time of executed nodes, in ms per evaluation. A hoist
   group's time is charged to its leader, a rotation. *)
let op_layers ~evaluations per_node =
  let tot = Hashtbl.create 8 in
  List.iter
    (fun (_, op, s) ->
      let cls =
        match op with
        | Ir.Rotate_left _ | Ir.Rotate_right _ -> Some "op.rotate_ms"
        | Ir.Relinearize -> Some "op.relinearize_ms"
        | Ir.Multiply -> Some "op.multiply_ms"
        | Ir.Rescale _ -> Some "op.rescale_ms"
        | Ir.Add | Ir.Sub | Ir.Negate -> Some "op.add_ms"
        | Ir.Mod_switch -> Some "op.modswitch_ms"
        | _ -> None
      in
      Option.iter (fun c -> Hashtbl.replace tot c (s +. Option.value (Hashtbl.find_opt tot c) ~default:0.0)) cls)
    per_node;
  List.map
    (fun c -> (c, 1000.0 *. Option.value (Hashtbl.find_opt tot c) ~default:0.0 /. float_of_int (max 1 evaluations)))
    [ "op.rotate_ms"; "op.relinearize_ms"; "op.multiply_ms"; "op.rescale_ms"; "op.add_ms"; "op.modswitch_ms" ]

(* Median microseconds of [f] over repetitions filling about [budget]
   seconds (at least 5). *)
let micro ~budget f =
  let t_end = now () +. budget in
  let rec go acc n =
    if n >= 5 && now () > t_end then median acc
    else begin
      let t0 = now () in
      f ();
      go ((now () -. t0) *. 1e6 :: acc) (n + 1)
    end
  in
  go [] 0

(* Scheme kernels at a workload's degree and top level: a fresh context
   and keyset for the chain the compiler selected. Returns the context
   + key generation seconds and the kernel medians. *)
let ckks_probe ~log_n (p : Params.t) =
  let (ctx, (secret, keys)), ctx_s =
    timed "ckks.context_keygen" (fun () ->
        let ctx =
          Ctx.make ~ignore_security:true ~n:(1 lsl log_n) ~data_bits:p.Params.context_data_bits
            ~special_bits:p.Params.special_bits ()
        in
        (ctx, Keys.generate ctx (Random.State.make [| 7 |]) ~galois_elts:[]))
  in
  let rng = Random.State.make [| 11 |] in
  let level = Ctx.chain_length ctx in
  let values = Array.init (Ctx.slots ctx) (fun i -> Float.sin (float_of_int i)) in
  let scale = Float.ldexp 1.0 30 in
  let pt = Eval.encode ctx ~level ~scale values in
  let ct = Eval.encrypt ctx keys rng pt in
  let table = (Ctx.tables_for_level ctx level).(0) in
  let row = Rowvec.init (1 lsl log_n) (fun i -> i mod Ntt.modulus table) in
  let d = Keys.decompose ctx ~level ct.Eval.polys.(1) in
  let budget = 0.08 in
  let layers =
    [
      ("ckks.ntt_us", micro ~budget (fun () -> Ntt.forward table row));
      ("ckks.ks_decompose_us", micro ~budget (fun () -> ignore (Keys.decompose ctx ~level ct.Eval.polys.(1))));
      ("ckks.ks_apply_us", micro ~budget (fun () -> ignore (Keys.apply_decomposed ctx keys.Keys.relin d)));
      ("ckks.encode_us", micro ~budget (fun () -> ignore (Eval.encode ctx ~level ~scale values)));
      ("ckks.encrypt_us", micro ~budget (fun () -> ignore (Eval.encrypt ctx keys rng pt)));
      ("ckks.decrypt_us", micro ~budget (fun () -> ignore (Eval.decrypt ctx secret ct)));
    ]
  in
  let err = ref 0.0 in
  Array.iteri (fun i v -> err := Float.max !err (Float.abs (v -. values.(i)))) (Eval.decrypt ctx secret ct);
  check (!err < 1e-3) "ckks probe: encrypt/decrypt round trip error %.3g" !err;
  (ctx_s, layers)

type wire_cost = { enc_us : float; dec_us : float; bytes : int }

(* Frame a request and parse it back: the client/server boundary every
   input crosses. *)
let wire_round_trip ?parent ~req inputs =
  let buf = Buffer.create 4096 in
  let (), enc = timed ?parent ~req "wire.write_request" (fun () -> Wire.write_request buf ~id:req inputs) in
  let payload = Buffer.contents buf in
  let parsed, dec = timed ?parent ~req "wire.read_request" (fun () -> Wire.read_request payload ~pos:(ref 0)) in
  check (parsed.Wire.req_id = req) "wire: request %d parsed back as %d" req parsed.Wire.req_id;
  (parsed, { enc_us = enc *. 1e6; dec_us = dec *. 1e6; bytes = String.length payload })

let wire_layers costs =
  [
    ("wire.request_encode_us", median (List.map (fun w -> w.enc_us) costs));
    ("wire.request_decode_us", median (List.map (fun w -> w.dec_us) costs));
    ("wire.request_bytes", mean (List.map (fun w -> float_of_int w.bytes) costs));
  ]

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> float_of_int kb /. 1024.0)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* ------------------------------------------------------------------ *)
(* Workload results                                                    *)
(* ------------------------------------------------------------------ *)

type json = Num of float | Int of int | Bool of bool | Str of string | Obj of (string * json) list

let rec json_to_string = function
  | Num f ->
      if Float.is_finite f then Printf.sprintf "%.17g" f
      else failwith "perfbench: a measured value is not finite"
  | Int i -> string_of_int i
  | Bool b -> string_of_bool b
  | Str s -> json_string s
  | Obj kvs ->
      "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ json_to_string v) kvs) ^ "}"

type outcome = {
  setup_s : float;
  attempted : int;
  failed : int;
  e2e : (string * float) list;
  layers : (string * float) list;
  record : (string * json) list;
}

type opts = { workload : string; seed : int; seconds : float; smoke : bool }

(* ------------------------------------------------------------------ *)
(* dnn-infer: closed-loop encrypted inference of mini-LeNet            *)
(* ------------------------------------------------------------------ *)

(* The scheme kernels and the parallel executor do nearly all the work:
   rotations and key switching dominate node time, compile and serve
   do almost nothing. *)

let dnn_log_n = 10
let dnn_slo_ms = 2500.0

type dnn = {
  net : N.t;
  weights : N.weights;
  lowered : N.lowered;
  compiled : Compile.compiled;
  engine : Executor.engine;
  dnn_setup : (string * float) list;
}

let dnn_image ~seed i =
  let net = Nets.mini_lenet in
  let st = Random.State.make [| seed; i |] in
  Array.init (net.N.input_channels * net.N.input_height * net.N.input_width) (fun _ ->
      Random.State.float st 2.0 -. 1.0)

let dnn_setup ~seed =
  let net = Nets.mini_lenet in
  let (weights, lowered), build_s =
    timed "frontend.build" (fun () ->
        let weights = N.random_weights net ~seed:1 in
        (weights, N.lower ~mode:`Eva ~scales:(Nets.scales_for net) net weights))
  in
  let (compiled, phases), _ = timed "compile" (fun () -> compile lowered.N.program) in
  let engine, _ =
    timed "executor.prepare" (fun () ->
        Executor.prepare ~seed ~ignore_security:true ~log_n:dnn_log_n compiled
          (N.bindings lowered (dnn_image ~seed (-1))))
  in
  { net; weights; lowered; compiled; engine; dnn_setup = ("frontend.build_s", build_s) :: phases }

type inference = {
  image : float array;
  logits : float array;
  result : Parallel.result;
  ms : float;
  encrypt_s : float;
  wire : wire_cost;
}

(* One inference: the image crosses the wire, is encrypted into the
   engine, evaluated on nproc domains, decrypted and reassembled. *)
let dnn_infer d ~seed i =
  let sid = fresh_sid () in
  let t0 = now () in
  let image = dnn_image ~seed i in
  let parsed, wire = wire_round_trip ~parent:sid ~req:i [ ("image", image) ] in
  let image' = List.assoc "image" parsed.Wire.req_inputs in
  let e, encrypt_s =
    timed ~parent:sid ~req:i "executor.rebind" (fun () ->
        Executor.rebind ~seed:(seed + i) d.engine d.compiled (N.bindings d.lowered image'))
  in
  let r, _ =
    timed ~parent:sid ~req:i "parallel.execute_on" (fun () -> Parallel.execute_on ~workers:nproc e d.compiled)
  in
  let logits, _ =
    timed ~parent:sid ~req:i "tensor.read_outputs" (fun () ->
        N.read_outputs d.lowered (Compile.unpack_outputs d.compiled r.Parallel.outputs))
  in
  let t1 = now () in
  record ~sid ~req:i "dnn.inference" t0 t1;
  { image; logits; result = r; ms = (t1 -. t0) *. 1000.0; encrypt_s; wire }

let dnn_infer_run o =
  let seed = o.seed in
  let t_setup = now () in
  let d = dnn_setup ~seed in
  let setup_s = now () -. t_setup in
  let k = program_counts d.compiled in
  (* Logits tolerance, and the margin below which two plain logits count
     as tied (argmax may then legitimately differ). *)
  let tol = 0.05 in
  let max_err = ref 0.0 and agree = ref 0 and ties = ref 0 and job_bits = ref [] in
  let verify i { image; logits; _ } =
    let plain = N.infer_plain d.net d.weights image in
    let err = ref 0.0 in
    Array.iteri (fun j v -> err := Float.max !err (Float.abs (v -. plain.(j)))) logits;
    max_err := Float.max !max_err !err;
    job_bits := bits !err :: !job_bits;
    let top = T.argmax plain in
    let runner_up =
      Array.fold_left Float.max neg_infinity (Array.mapi (fun j v -> if j = top then neg_infinity else v) plain)
    in
    let same = T.argmax logits = top in
    if same then incr agree else if plain.(top) -. runner_up < 2.0 *. tol then incr ties;
    let ok = Array.length logits = Array.length plain && !err <= tol && (same || plain.(top) -. runner_up < 2.0 *. tol) in
    check ok "dnn-infer: inference %d max |encrypted - plain| %.3g, argmax %d vs %d" i !err (T.argmax logits) top;
    ok
  in
  (* One warm-up inference fills lazily built process-global tables; it
     is checked but neither timed nor counted as attempted. *)
  ignore (verify 1_000_000 (dnn_infer d ~seed 1_000_000));
  let t_start = now () in
  let rec loop i acc =
    if (i >= 2 && now () -. t_start >= o.seconds) || (o.smoke && i >= 2) then List.rev acc
    else begin
      let x = dnn_infer d ~seed i in
      let ok = verify i x in
      check_op_counts (Printf.sprintf "dnn-infer inference %d" i) k x.result.Parallel.timings.Executor.op_counts;
      loop (i + 1) ((x, ok) :: acc)
    end
  in
  let samples = loop 0 [] in
  let wall = now () -. t_start in
  let n = List.length samples in
  let failed = List.length (List.filter (fun (_, ok) -> not ok) samples) in
  let lat = List.map (fun (x, _) -> x.ms) samples in
  let runs = List.map (fun (x, _) -> x.result) samples in
  let tm r = r.Parallel.timings in
  let node_s = List.concat_map (fun r -> (tm r).Executor.per_node) runs in
  let busy = sum (List.map (fun (_, _, s) -> s) node_s) in
  let exec_wall = sum (List.map (fun r -> (tm r).Executor.execute_seconds) runs) in
  let hits = List.fold_left (fun a r -> a + (tm r).Executor.pt_cache_hits) 0 runs in
  let misses = List.fold_left (fun a r -> a + (tm r).Executor.pt_cache_misses) 0 runs in
  let met = List.length (List.filter (fun (x, ok) -> ok && x.ms <= dnn_slo_ms) samples) in
  let params = d.compiled.Compile.params in
  let ckks = if !tracing then snd (ckks_probe ~log_n:dnn_log_n params) else [] in
  {
    setup_s;
    attempted = n;
    failed;
    e2e =
      [
        ("latency_p50_ms", median lat);
        ("latency_p90_ms", percentile 0.9 lat);
        ("throughput_per_s", float_of_int n /. wall);
        ("slo_met_ratio", ratio met n);
        ("precision_bits", median !job_bits);
        ("modulus_bits", float_of_int params.Params.log_q);
        ("keyswitch_nodes", float_of_int (k.relinearizations + k.rotations));
      ];
    layers =
      d.dnn_setup @ counts_layers k
      @ [
          ("compile.nodes_in", float_of_int (Ir.node_count d.lowered.N.program));
          ("compile.nodes_out", float_of_int (Ir.node_count d.compiled.Compile.program));
          ("executor.context_s", Executor.engine_context_seconds d.engine);
          ("executor.galois_keys", float_of_int (List.length (Compile.slot_rotations d.compiled)));
          ("executor.encrypt_ms", 1000.0 *. median (List.map (fun (x, _) -> x.encrypt_s) samples));
          ("executor.evaluate_ms", 1000.0 *. median (List.map (fun r -> (tm r).Executor.execute_seconds) runs));
          ("executor.decrypt_ms", 1000.0 *. median (List.map (fun r -> (tm r).Executor.decrypt_seconds) runs));
          ( "executor.peak_live_values",
            float_of_int (List.fold_left (fun a r -> max a r.Parallel.peak_live_values) 0 runs) );
          ("executor.pt_cache_hit_ratio", ratio hits (hits + misses));
          ("parallel.busy_ratio", busy /. (float_of_int nproc *. exec_wall));
          ("trace.latency_p50_ms", median lat);
        ]
      @ wire_layers (List.map (fun (x, _) -> x.wire) samples)
      @ op_layers ~evaluations:n node_s @ ckks;
    record =
      [
        ("network", Str d.net.N.net_name);
        ("log_n", Int dnn_log_n);
        ("chain_length", Int (List.length params.Params.context_data_bits));
        ("clients", Int 1);
        ("graph_workers", Int nproc);
        ("inferences", Int n);
        ("samples_beyond_p90", Int (beyond_p90 n));
        ("argmax_agree", Int !agree);
        ("argmax_ties", Int !ties);
        ("logit_tolerance", Num tol);
        ("worst_precision_bits", Num (bits !max_err));
        ("slo_ms", Num dnn_slo_ms);
      ];
  }

(* ------------------------------------------------------------------ *)
(* serve-open / serve-burst: the retrieval daemon                      *)
(* ------------------------------------------------------------------ *)

(* SNIPPETS snippet 2: a cipher query scored against a plaintext
   database row, in the daemon configuration of the repository's serve
   and batch experiments. *)

type serve_size = { vs : int; log_n : int; rows : int }

let serve_size smoke = if smoke then { vs = 16; log_n = 9; rows = 4 } else { vs = 64; log_n = 11; rows = 8 }
let serve_max_batch = 8

(* Open-loop arrival rate: about half the daemon's unbatched capacity on
   a 2-core host (one request takes ~60 ms of encrypt, evaluate and
   decrypt at pipeline 1). *)
let open_rate_per_s = 8.0
let open_slo_ms = 300.0
(* Three full batches in flight keep both the daemon's worker and the
   caller-running generator busy; at two, runs fell into one regime or
   the other (one or two executors busy) and throughput swung by a
   fifth between runs. *)
let burst_outstanding = 3 * serve_max_batch
let burst_slo_ms = 1000.0

let serve_config seed =
  {
    Serve.default_config with
    Serve.pipeline = 1;
    queue_depth = 8;
    max_batch = serve_max_batch;
    batch_linger_ms = 1.0;
    seed;
  }

let retrieval vs =
  let b = B.create ~name:"retrieval" ~vec_size:vs () in
  let q = B.input b ~scale:30 "q" in
  let w = B.vector_input b ~scale:30 "w" in
  B.output b "score" ~scale:30 (B.sum_slots b ~span:vs (B.mul q w));
  B.program b

let serve_db ~seed sz =
  let st = Random.State.make [| seed; 0xdb |] in
  Array.init sz.rows (fun _ -> Array.init sz.vs (fun _ -> Random.State.float st 2.0 -. 1.0))

let serve_query ~seed sz id =
  let st = Random.State.make [| seed; id |] in
  Array.init sz.vs (fun _ -> Random.State.float st 2.0 -. 1.0)

let dot a b =
  let s = ref 0.0 in
  Array.iteri (fun i x -> s := !s +. (x *. b.(i))) a;
  !s

(* Responses and pickups as the daemon reports them, by request id. *)
type tracker = {
  lock : Mutex.t;
  cond : Condition.t;
  answers : (int, float * ((string * float array) list, Diag.t) result) Hashtbl.t;  (* response time, payload *)
  pickups : (int, float) Hashtbl.t;
  mutable outstanding : int;
}

type served = {
  input : Ir.program;
  compiled : Compile.compiled;
  extra_rotations : int list;
  engine : Executor.engine;
  daemon : Serve.t;
  tracker : tracker;
  serve_setup : (string * float) list;
}

let serve_setup ~seed sz =
  let tracker =
    { lock = Mutex.create (); cond = Condition.create (); answers = Hashtbl.create 1024; pickups = Hashtbl.create 1024; outstanding = 0 }
  in
  let respond (r : Wire.response) =
    let t = now () in
    Mutex.lock tracker.lock;
    Hashtbl.replace tracker.answers r.Wire.resp_id (t, r.Wire.payload);
    tracker.outstanding <- tracker.outstanding - 1;
    Condition.broadcast tracker.cond;
    Mutex.unlock tracker.lock
  in
  (* The daemon asks for a request's fault plan when it picks the
     request up for execution: that call marks the end of queueing. *)
  let fault_for id =
    let t = now () in
    Mutex.lock tracker.lock;
    if not (Hashtbl.mem tracker.pickups id) then Hashtbl.replace tracker.pickups id t;
    Mutex.unlock tracker.lock;
    None
  in
  let input, build_s = timed "frontend.build" (fun () -> retrieval sz.vs) in
  let (compiled, phases), _ = timed "compile" (fun () -> compile input) in
  let extra_rotations, _ =
    timed "compile.batch_rotations" (fun () -> Compile.batch_rotations compiled ~max_lanes:serve_max_batch)
  in
  let zero = [ ("q", Reference.Vec (Array.make sz.vs 0.0)); ("w", Reference.Vec (Array.make sz.vs 0.0)) ] in
  let engine, _ =
    timed "executor.prepare" (fun () ->
        Executor.prepare ~seed ~ignore_security:true ~log_n:sz.log_n ~extra_rotations compiled zero)
  in
  let daemon, _ =
    timed "serve.start" (fun () -> Serve.start ~config:(serve_config seed) ~fault_for ~respond compiled engine)
  in
  { input; compiled; extra_rotations; engine; daemon; tracker; serve_setup = ("frontend.build_s", build_s) :: phases }

(* Unbatched requests straight through the engine, outside the daemon:
   the executor's encrypt / evaluate / decrypt split and per-op self
   times for the served program (the daemon does not expose them). *)
let serve_executor_probe s sz ~seed ~db =
  let k = program_counts s.compiled in
  let reps = 5 in
  let samples =
    List.init reps (fun i ->
        let id = 1_000_000 + i in
        let q = serve_query ~seed sz id in
        let bindings = [ ("q", Reference.Vec q); ("w", Reference.Vec db.(i mod sz.rows)) ] in
        let e, enc = timed "executor.rebind" (fun () -> Executor.rebind ~seed:id ~reset_cache:false s.engine s.compiled bindings) in
        let st, ev = timed "executor.run_graph" (fun () -> Executor.run_graph ~record_per_node:true e s.compiled) in
        let out, dec =
          timed "executor.read_output" (fun () ->
              List.map (fun (name, v) -> (name, Executor.read_output e v)) st.Executor.raw_outputs)
        in
        let score = (List.assoc "score" (Compile.unpack_outputs s.compiled out)).(0) in
        let expected = dot q db.(i mod sz.rows) in
        check (Float.abs (score -. expected) < 1e-2 *. (1.0 +. Float.abs expected))
          "serve probe: score %.6f vs %.6f" score expected;
        check_op_counts "serve probe" k st.Executor.op_counts;
        (enc, ev, dec, st))
  in
  let stats = List.map (fun (_, _, _, st) -> st) samples in
  let node_s = List.concat_map (fun st -> st.Executor.node_seconds) stats in
  [
    ("executor.encrypt_ms", 1000.0 *. median (List.map (fun (e, _, _, _) -> e) samples));
    ("executor.evaluate_ms", 1000.0 *. median (List.map (fun (_, e, _, _) -> e) samples));
    ("executor.decrypt_ms", 1000.0 *. median (List.map (fun (_, _, d, _) -> d) samples));
    ("executor.peak_live_values", float_of_int (List.fold_left (fun a st -> max a st.Executor.peak_live_values) 0 stats));
    ( "parallel.busy_ratio",
      sum (List.map (fun (_, _, s) -> s) node_s) /. sum (List.map (fun st -> st.Executor.elapsed_seconds) stats) );
  ]
  @ op_layers ~evaluations:reps node_s

type request = { id : int; due : float; sid : int; lag_ms : float; submitted : float; wire : wire_cost }

(* Submit request [id] (framed and parsed as a client would send it),
   recording its spans. [due] is when it was due to be sent. *)
let serve_send s sz ~seed ~db ~due id =
  let sid = fresh_sid () in
  let sent = now () in
  record ~parent:sid ~req:id "serve.generator_lag" due sent;
  let q = serve_query ~seed sz id in
  let parsed, wire = wire_round_trip ~parent:sid ~req:id [ ("q", q); ("w", db.(id mod sz.rows)) ] in
  let submitted = now () in
  Mutex.lock s.tracker.lock;
  s.tracker.outstanding <- s.tracker.outstanding + 1;
  Mutex.unlock s.tracker.lock;
  Serve.submit s.daemon parsed;
  { id; due; sid; lag_ms = (sent -. due) *. 1000.0; submitted; wire }

let serve_run ~burst o =
  let seed = o.seed in
  let sz = serve_size o.smoke in
  let t_setup = now () in
  let s = serve_setup ~seed sz in
  let setup_s = now () -. t_setup in
  let db = serve_db ~seed sz in
  let sent = ref [] in
  let t_start = now () in
  if burst then begin
    (* Closed loop: keep [burst_outstanding] requests in flight, so every
       execution is a full batch and caller-runs backpressure engages. *)
    let rec loop id =
      if now () -. t_start < o.seconds && not (o.smoke && id >= 4 * serve_max_batch) then begin
        Mutex.lock s.tracker.lock;
        while s.tracker.outstanding >= burst_outstanding do
          Condition.wait s.tracker.cond s.tracker.lock
        done;
        Mutex.unlock s.tracker.lock;
        let due = now () in
        sent := serve_send s sz ~seed ~db ~due id :: !sent;
        loop (id + 1)
      end
    in
    loop 0
  end
  else begin
    (* Open loop: seeded Poisson arrivals at a fixed rate, sent on
       schedule whether or not earlier requests have finished. The
       count is fixed at rate x horizon and the arrival times are sorted
       uniform draws — a Poisson process conditioned on its count — so
       every seed offers the same load. *)
    let st = Random.State.make [| seed; 0xa77 |] in
    let horizon = if o.smoke then 1.0 else o.seconds in
    let count = int_of_float (Float.round (open_rate_per_s *. horizon)) in
    let arrivals = sorted (List.init count (fun _ -> Random.State.float st horizon)) in
    Array.iteri
      (fun id at ->
        let due = t_start +. at in
        let wait = due -. now () in
        if wait > 0.0 then Unix.sleepf wait;
        sent := serve_send s sz ~seed ~db ~due id :: !sent)
      arrivals
  end;
  let stats = Serve.drain s.daemon in
  let t_end = now () in
  let sent = List.rev !sent in
  let attempted = List.length sent in
  (* Every request: answered, correct, and its latency from due time. *)
  let failed = ref 0 and met = ref 0 and max_err = ref 0.0 and req_bits = ref [] in
  let lat = ref [] and waits = ref [] and services = ref [] in
  let slo = if burst then burst_slo_ms else open_slo_ms in
  List.iter
    (fun { id; due; sid; submitted; _ } ->
      let expected = dot (serve_query ~seed sz id) db.(id mod sz.rows) in
      match Hashtbl.find_opt s.tracker.answers id with
      | None ->
          incr failed;
          check false "serve: request %d never answered" id
      | Some (t_done, payload) -> (
          let ms = (t_done -. due) *. 1000.0 in
          lat := ms :: !lat;
          record ~sid ~req:id "serve.request" due t_done;
          (match Hashtbl.find_opt s.tracker.pickups id with
          | Some t_pick ->
              record ~parent:sid ~req:id "serve.queue_wait" submitted t_pick;
              record ~parent:sid ~req:id "serve.service" t_pick t_done;
              waits := ((t_pick -. submitted) *. 1000.0) :: !waits;
              services := ((t_done -. t_pick) *. 1000.0) :: !services
          | None -> record ~parent:sid ~req:id "serve.rejected" submitted t_done);
          match payload with
          | Error d ->
              incr failed;
              check false "serve: request %d failed: %s" id (Diag.to_string d)
          | Ok outputs ->
              let score = match List.assoc_opt "score" outputs with Some v when Array.length v > 0 -> v.(0) | _ -> nan in
              let err = Float.abs (score -. expected) in
              let ok = err < 1e-2 *. (1.0 +. Float.abs expected) in
              check ok "serve: request %d score %.6f vs %.6f" id score expected;
              if ok then begin
                max_err := Float.max !max_err err;
                req_bits := bits err :: !req_bits;
                if ms <= slo then incr met
              end
              else incr failed))
    sent;
  let probe =
    if !tracing then serve_executor_probe s sz ~seed ~db @ snd (ckks_probe ~log_n:sz.log_n s.compiled.Compile.params)
    else []
  in
  let k = program_counts s.compiled in
  let params = s.compiled.Compile.params in
  let served = List.length !lat in
  {
    setup_s;
    attempted;
    failed = !failed;
    e2e =
      [
        ("latency_p50_ms", median !lat);
        ("latency_p90_ms", percentile 0.9 !lat);
        ("throughput_per_s", float_of_int (attempted - !failed) /. (t_end -. t_start));
        ("slo_met_ratio", ratio !met attempted);
        ("precision_bits", median !req_bits);
        ("modulus_bits", float_of_int params.Params.log_q);
        ("keyswitch_nodes", float_of_int (k.relinearizations + k.rotations));
      ];
    layers =
      s.serve_setup @ counts_layers k @ probe
      @ [
          ("compile.nodes_in", float_of_int (Ir.node_count s.input));
          ("compile.nodes_out", float_of_int (Ir.node_count s.compiled.Compile.program));
          ("executor.context_s", Executor.engine_context_seconds s.engine);
          ("executor.galois_keys", float_of_int (List.length (List.sort_uniq compare (Compile.slot_rotations s.compiled @ s.extra_rotations))));
          ("executor.pt_cache_hit_ratio", Serve.pt_hit_rate stats);
          ("serve.queue_wait_ms", median !waits);
          ("serve.service_ms", median !services);
          ("serve.batch_width_mean", ratio stats.Serve.requests_served stats.Serve.executions);
          ("serve.slot_utilization", Serve.slot_utilization stats);
          ("serve.executions", float_of_int stats.Serve.executions);
          ("serve.queue_high_water", float_of_int stats.Serve.queue_high_water);
          ("serve.generator_lag_ms", mean (List.map (fun r -> r.lag_ms) sent));
          ("serve.shed", float_of_int stats.Serve.requests_shed);
          ("serve.cancelled", float_of_int stats.Serve.requests_cancelled);
          ("trace.latency_p50_ms", median !lat);
        ]
      @ wire_layers (List.map (fun r -> r.wire) sent);
    record =
      [
        ("program", Str "retrieval (cipher query x plaintext database row)");
        ("vec_size", Int sz.vs);
        ("db_rows", Int sz.rows);
        ("log_n", Int sz.log_n);
        ("chain_length", Int (List.length params.Params.context_data_bits));
        ("loop", Str (if burst then "closed" else "open"));
        (if burst then ("outstanding", Int burst_outstanding) else ("offered_rate_per_s", Num open_rate_per_s));
        ("pipeline", Int (serve_config seed).Serve.pipeline);
        ("max_batch", Int serve_max_batch);
        ("linger_ms", Num (serve_config seed).Serve.batch_linger_ms);
        ("requests", Int attempted);
        ("answered", Int served);
        ("samples_beyond_p90", Int (beyond_p90 served));
        ("slo_ms", Num slo);
        ("worst_precision_bits", Num (bits !max_err));
      ];
  }

(* ------------------------------------------------------------------ *)
(* compile-nets: the five Table 6 networks, no crypto                  *)
(* ------------------------------------------------------------------ *)

(* The only workload where the compiler dominates: lowering plus
   Compile.run of the full-size networks. Each pass compiles all five;
   every pass after the first must reproduce the first bit for bit. *)

let compile_slo_ms = 30_000.0

let compile_nets o = if o.smoke then Nets.minis else Nets.all

type net_summary = {
  fp : string;
  counts : counts;
  params : Params.t;
  nodes_in : int;
  nodes_out : int;
  galois_keys : int;
}

(* Set-up: seeded weights for every network, then the first network
   lowered and compiled — a fresh process's time to its first compiled
   program, which lazily built process-global state lands in. *)
let compile_setup o =
  let nets = compile_nets o in
  let weights, _ = timed "frontend.weights" (fun () -> List.map (fun net -> N.random_weights net ~seed:o.seed) nets) in
  let first = List.hd nets in
  let (_ : Compile.compiled), _ =
    timed "compile.first" (fun () ->
        Compile.run (N.lower ~mode:`Eva ~scales:(Nets.scales_for first) first (List.hd weights)).N.program)
  in
  (nets, weights)

let compile_nets_run o =
  let t_setup = now () in
  let nets, weights = compile_setup o in
  let setup_s = now () -. t_setup in
  let nets = List.combine nets weights in
  let firsts = Hashtbl.create 8 in
  let failed = ref 0 and met = ref 0 and attempted = ref 0 in
  let passes_ms = ref [] and layer_samples = ref [] and net_bits = ref [] in
  (* Correctness of one compiled network: it satisfies every compiler
     constraint, its exact semantics (Reference runs it under identity
     encryption) match plain inference of the network on a seeded image,
     a traced phase-by-phase compile equals Compile.run, and every pass
     reproduces the first. *)
  let verify ~pass ~k net w (lowered : N.lowered) compiled =
    let name = net.N.net_name in
    let fp = fingerprint compiled in
    let valid =
      match Validate.check_transformed ~s_f:compiled.Compile.s_f compiled.Compile.program with
      | () -> true
      | exception e ->
          check false "compile-nets: %s fails validation: %s" name (Printexc.to_string e);
          false
    in
    check valid "compile-nets: %s validates" name;
    let same_as_run =
      (not !tracing)
      ||
      let same = fingerprint (Compile.run lowered.N.program) = fp in
      check same "compile-nets: %s phase-by-phase compile differs from Compile.run" name;
      same
    in
    let reproducible =
      match Hashtbl.find_opt firsts name with
      | Some first ->
          check (fp = first.fp) "compile-nets: %s compiled differently in pass %d" name pass;
          fp = first.fp
      | None ->
          (* Only a summary is kept: holding a compiled network across
             passes would double the workload's memory. *)
          Hashtbl.replace firsts name
            {
              fp;
              counts = program_counts compiled;
              params = compiled.Compile.params;
              nodes_in = Ir.node_count lowered.N.program;
              nodes_out = Ir.node_count compiled.Compile.program;
              galois_keys = List.length (Compile.slot_rotations compiled);
            };
          let image =
            let st = Random.State.make [| o.seed; k |] in
            Array.init (net.N.input_channels * net.N.input_height * net.N.input_width) (fun _ ->
                Random.State.float st 2.0 -. 1.0)
          in
          let plain = N.infer_plain net w image in
          let out =
            N.read_outputs lowered
              (Compile.unpack_outputs compiled (Reference.execute compiled.Compile.program (N.bindings lowered image)))
          in
          let scale = Array.fold_left (fun a v -> Float.max a (Float.abs v)) 1.0 plain in
          let err = ref 0.0 in
          Array.iteri (fun j v -> err := Float.max !err (Float.abs (v -. plain.(j)) /. scale)) out;
          net_bits := bits !err :: !net_bits;
          check (!err < 1e-9) "compile-nets: %s compiled semantics differ from plain inference by %.3g (relative)"
            name !err;
          !err < 1e-9
    in
    valid && same_as_run && reproducible
  in
  (* One job = one pass: lower and compile each network; verification
     runs between networks and is not part of the job's time. Untraced:
     at least three passes (each after the first checks determinism).
     Traced: one pass, each network compiled phase by phase and again
     through Compile.run. The heap is compacted before each pass, so
     every pass starts from the same GC state. Spans are per network. *)
  let min_passes = if !tracing then 1 else if o.smoke then 2 else 3 in
  let t_start = now () in
  let rec passes pass =
    if pass < min_passes || ((not o.smoke) && (not !tracing) && now () -. t_start < o.seconds) then begin
      Gc.compact ();
      incr attempted;
      let busy = ref 0.0 and ok = ref true in
      List.iteri
        (fun k (net, w) ->
          let req = (pass * List.length nets) + k in
          let nsid = fresh_sid () in
          let n0 = now () in
          let lowered, lower_s =
            timed ~parent:nsid ~req "tensor.lower" (fun () -> N.lower ~mode:`Eva ~scales:(Nets.scales_for net) net w)
          in
          let compiled, phases = compile ~parent:nsid ~req lowered.N.program in
          let n1 = now () in
          record ~sid:nsid ~req "compile.network" n0 n1;
          busy := !busy +. (n1 -. n0);
          layer_samples := (("frontend.build_s", lower_s) :: phases) :: !layer_samples;
          if not (verify ~pass ~k net w lowered compiled) then ok := false)
        nets;
      passes_ms := (!busy *. 1000.0) :: !passes_ms;
      if !ok && !busy *. 1000.0 <= compile_slo_ms then incr met;
      if not !ok then incr failed;
      passes (pass + 1)
    end
  in
  passes 0;
  let firsts = List.map (fun (net, _) -> Hashtbl.find firsts net.N.net_name) nets in
  let total f = List.fold_left (fun a x -> a + f x) 0 firsts in
  let k = List.fold_left (fun acc x -> add_counts acc x.counts) (List.hd firsts).counts (List.tl firsts) in
  let all_params = List.map (fun x -> x.params) firsts in
  let passes_run = List.length !passes_ms in
  let layer name =
    sum (List.map (fun l -> Option.value (List.assoc_opt name l) ~default:0.0) !layer_samples)
    /. float_of_int passes_run
  in
  let probe_ctx_s, ckks =
    if !tracing then ckks_probe ~log_n:(min 12 (List.hd all_params).Params.log_n) (List.hd all_params) else (0.0, [])
  in
  {
    setup_s;
    attempted = !attempted;
    failed = !failed;
    e2e =
      [
        ("latency_p50_ms", median !passes_ms);
        ("latency_p90_ms", percentile 0.9 !passes_ms);
        ("throughput_per_s", float_of_int (passes_run * List.length nets) /. (sum !passes_ms /. 1000.0));
        ("slo_met_ratio", ratio !met !attempted);
        ("precision_bits", median !net_bits);
        ("modulus_bits", float_of_int (List.fold_left (fun a p -> a + p.Params.log_q) 0 all_params));
        ("keyswitch_nodes", float_of_int (k.relinearizations + k.rotations));
      ];
    layers =
      List.map
        (fun name -> (name, layer name))
        [ "frontend.build_s"; "compile.validate_input_s"; "compile.vectorize_s"; "compile.transform_s";
          "compile.validate_s"; "compile.params_s" ]
      @ counts_layers k @ ckks
      @ [
          ("compile.nodes_in", float_of_int (total (fun x -> x.nodes_in)));
          ("compile.nodes_out", float_of_int (total (fun x -> x.nodes_out)));
          ("executor.context_s", probe_ctx_s);
          ("executor.galois_keys", float_of_int (total (fun x -> x.galois_keys)));
          ("trace.latency_p50_ms", median !passes_ms);
        ];
    record =
      [
        ("networks", Str (String.concat ", " (List.map (fun (n, _) -> n.N.net_name) nets)));
        ("log_n", Str (String.concat "," (List.map (fun p -> string_of_int p.Params.log_n) all_params)));
        ( "chain_length",
          Str (String.concat "," (List.map (fun p -> string_of_int (List.length p.Params.context_data_bits)) all_params)) );
        ("passes", Int passes_run);
        ("samples_beyond_p90", Int (beyond_p90 passes_run));
        ("pass_ms", Str (String.concat "," (List.rev_map (Printf.sprintf "%.0f") !passes_ms)));
        ("clients", Int 1);
        ("slo_ms", Num compile_slo_ms);
        ( "precision",
          Str "median over networks: compiled program under identity encryption vs plain inference, relative to max |logit|" );
        ("worst_precision_bits", Num (List.fold_left Float.min infinity !net_bits));
      ];
  }

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let workloads = [ "dnn-infer"; "serve-open"; "serve-burst"; "compile-nets" ]

let setup_only o =
  let t0 = now () in
  let setup_s =
    match o.workload with
    | "dnn-infer" ->
        ignore (dnn_setup ~seed:o.seed);
        now () -. t0
    | "serve-open" | "serve-burst" ->
        let s = serve_setup ~seed:o.seed (serve_size o.smoke) in
        let t = now () -. t0 in
        ignore (Serve.drain s.daemon);
        t
    | _ ->
        ignore (compile_setup o);
        now () -. t0
  in
  print_endline (json_to_string (Obj [ ("setup_s", Num setup_s) ]))

(* Workloads fill in the layers they call; every other layer reads 0. *)
let run o ~trace_out =
  let r =
    match o.workload with
    | "dnn-infer" -> dnn_infer_run o
    | "serve-open" -> serve_run ~burst:false o
    | "serve-burst" -> serve_run ~burst:true o
    | _ -> compile_nets_run o
  in
  let all_spans = !spans in
  let r =
    if !tracing then
      {
        r with
        layers =
          r.layers
          @ [
              ("trace.spans", float_of_int (List.length all_spans));
              ("trace.job_coverage_min_ratio", min_child_coverage all_spans);
            ];
      }
    else r
  in
  Option.iter (fun path -> if !tracing then write_chrome_trace path all_spans) trace_out;
  let e2e = ("peak_rss_mb", peak_rss_mb ()) :: r.e2e in
  let metric catalogue values =
    List.iter
      (fun (name, _) -> if not (List.mem_assoc name catalogue) then failwith ("undeclared metric " ^ name))
      values;
    Obj
      (List.map
         (fun (name, unit) ->
           (name, Obj [ ("value", Num (Option.value (List.assoc_opt name values) ~default:0.0)); ("unit", Str unit) ]))
         catalogue)
  in
  let failures = List.rev !check_failures in
  List.iter (fun f -> prerr_endline ("perfbench: FAILED " ^ f)) failures;
  let record =
    [
      ("workload", Str o.workload);
      ("seed", Int o.seed);
      ("seconds", Num o.seconds);
      ("smoke", Int (if o.smoke then 1 else 0));
      ("nproc", Int nproc);
      ("ocaml", Str Sys.ocaml_version);
      ("pool_workers", Str (Option.value (Sys.getenv_opt "POOL_WORKERS") ~default:"unset (0)"));
      ("checks_run", Int !checks_run);
      ("check_failures", Int (List.length failures));
    ]
    @ r.record
  in
  print_endline
    (json_to_string
       (Obj
          [
            ("correct", Bool (failures = [] && r.failed = 0));
            ("attempted", Int r.attempted);
            ("failed", Int r.failed);
            ("setup_s", Num r.setup_s);
            ("e2e", metric e2e_metrics e2e);
            ("layers", metric layer_metrics r.layers);
            ("record", Obj record);
          ]))

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 and smoke = ref false in
  let trace_out = ref None in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "T measurement time");
      ("--trace", Arg.Set_int trace, "0|1 record spans and report per-layer metrics");
      ("--trace-out", Arg.String (fun s -> trace_out := Some s), "FILE Chrome trace-event output");
      ("--smoke", Arg.Set smoke, " tiny sizes, for the benchmark's own tests");
    ]
  in
  let usage = "bench.exe (run|setup) --workload NAME --seed N [--seconds T] [--trace 0|1] [--smoke]" in
  (try Arg.parse_argv ~current:(ref 1) Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage
   with Arg.Bad m | Arg.Help m ->
     prerr_string m;
     exit 2);
  if not (List.mem !workload workloads) then begin
    prerr_endline (usage ^ "\nworkloads: " ^ String.concat ", " workloads);
    exit 2
  end;
  tracing := !trace = 1;
  let o = { workload = !workload; seed = !seed; seconds = !seconds; smoke = !smoke } in
  match mode with
  | "setup" -> setup_only o
  | "run" -> run o ~trace_out:!trace_out
  | _ ->
      prerr_endline usage;
      exit 2
