(* vcstat: offline analytics over --journal JSONL files.
   Usage: vcstat summary [--format text|json] [--top N] FILE...
          vcstat spans   [--format text|json] FILE
          vcstat funnel  [--format text|json] FILE
          vcstat request [--format text|json] [--top N] CLIENT SERVER...
          vcstat flame   [--format svg|text|json] FILE... *)

module Q = Vc_util.Journal_query

let usage () =
  prerr_endline
    "usage: vcstat summary [--format text|json] [--top N] FILE...\n\
    \       vcstat spans   [--format text|json] FILE\n\
    \       vcstat funnel  [--format text|json] FILE\n\
    \       vcstat request [--format text|json] [--top N] CLIENT SERVER...\n\
    \       vcstat flame   [--format svg|text|json] FILE...\n\
     Analyze journal JSONL files written by any tool's --journal FILE flag:\n\
    \  summary  per-component/per-event counts, error rate, latency\n\
    \           percentiles (p50/p90/p99) and the --top N slowest events\n\
    \  spans    text flamegraph of *.end/*.error events with a latency_s\n\
    \  funnel   participation funnel over Mooc.Cohort funnel.stage events\n\
    \  request  join a vcload client journal with a vcserve server journal\n\
    \           by trace_id: match rate, per-phase (queue/cache/execute/\n\
    \           reply/wire) latency breakdown, --top N slowest timelines\n\
    \  flame    flamegraph SVG (or folded text/JSON) from the continuous\n\
    \           profiler's profile.sample events in a server journal";
  exit 2

type format = Text | Json | Svg

let () =
  let argv = Vc_util.Telemetry.cli Sys.argv in
  let command = ref None
  and format = ref None
  and top = ref 5
  and files = ref [] in
  let rec parse = function
    | [] -> ()
    | "--format" :: fmt :: rest ->
      (match fmt with
      | "text" -> format := Some Text
      | "json" -> format := Some Json
      | "svg" -> format := Some Svg
      | _ ->
        Printf.eprintf "vcstat: unknown format %S (text, json or svg)\n" fmt;
        exit 2);
      parse rest
    | [ "--format" ] ->
      prerr_endline "vcstat: --format requires an argument (text, json or svg)";
      exit 2
    | "--top" :: n :: rest ->
      (match int_of_string_opt n with
      | Some v when v >= 0 -> top := v
      | Some _ | None ->
        Printf.eprintf "vcstat: --top: bad count %S\n" n;
        exit 2);
      parse rest
    | [ "--top" ] ->
      prerr_endline "vcstat: --top requires a count argument";
      exit 2
    | arg :: rest ->
      (match !command with
      | None -> command := Some arg
      | Some _ -> files := arg :: !files);
      parse rest
  in
  (match Array.to_list argv with _ :: rest -> parse rest | [] -> ());
  (* rotated journals: a base FILE argument expands to its
     FILE.00000.jsonl segment set, and globs work without a shell *)
  let files = Q.expand_segments (List.rev !files) in
  (* flame is the one command whose natural output is an image *)
  let format ~default = Option.value ~default !format in
  let load () =
    if files = [] then begin
      prerr_endline "vcstat: no journal file given";
      usage ()
    end;
    match Q.load_files files with
    | l ->
      List.iter
        (fun (line, msg) ->
          Printf.eprintf "vcstat: warning: skipped malformed line %d: %s\n"
            line msg)
        l.Q.malformed;
      l.Q.events
    | exception Sys_error msg ->
      Printf.eprintf "vcstat: %s\n" msg;
      exit 1
  in
  match !command with
  | Some "summary" ->
    let s = Q.summarize ~top:!top (load ()) in
    print_string
      (match format ~default:Text with
      | Text | Svg -> Q.render_summary s
      | Json -> Q.summary_to_json s ^ "\n")
  | Some "spans" ->
    let spans = Q.spans_of (load ()) in
    print_string
      (match format ~default:Text with
      | Text | Svg -> Q.render_spans spans
      | Json -> Q.spans_to_json spans ^ "\n")
  | Some "funnel" ->
    let stages = Q.funnel_of (load ()) in
    print_string
      (match format ~default:Text with
      | Text | Svg -> Q.render_funnel stages
      | Json -> Q.funnel_to_json stages ^ "\n")
  | Some "request" ->
    (* the trace-id join; over server journals alone it is vacuous and
       only the per-phase breakdown is interesting *)
    let join = Q.join_requests (load ()) in
    print_string
      (match format ~default:Text with
      | Text | Svg -> Q.render_requests ~top:!top join
      | Json -> Q.requests_to_json ~top:!top join ^ "\n")
  | Some "flame" ->
    let ticks, folded = Q.profile_folded (load ()) in
    print_string
      (match format ~default:Svg with
      | Svg -> Vc_util.Profile.flamegraph_svg ~ticks folded
      | Text -> Vc_util.Profile.to_folded_text folded
      | Json ->
        let module Json = Vc_util.Json in
        Json.obj
          [
            ("ticks", Json.int ticks);
            ( "samples",
              Json.int (List.fold_left (fun a (_, n) -> a + n) 0 folded) );
            ( "stacks",
              Json.obj (List.map (fun (k, n) -> (k, Json.int n)) folded) );
          ]
        ^ "\n")
  | Some cmd ->
    Printf.eprintf "vcstat: unknown command %S\n" cmd;
    usage ()
  | None -> usage ()
