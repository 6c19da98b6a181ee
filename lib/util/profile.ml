(* Continuous wall-clock profiler: a sampler tick reads every domain's
   Phase frame stack ("worker" / "cache" / "execute" / tool name, pushed
   with [Phase.run]) and bumps a folded-stack aggregate - the classic
   "where is time going" histogram, collected while the service runs.

   Aggregates live under their own mutex (touched once per tick, never
   on the frame hot path). A domain with an empty stack at tick time is
   attributed to "idle"; a domain is sampled from its first phase until
   it exits. *)

(* ------------------------------------------------------------------ *)
(* folded-stack aggregates                                             *)
(* ------------------------------------------------------------------ *)

let agg_mu = Mutex.create ()
let agg : (string, int ref) Hashtbl.t = Hashtbl.create 64
let tick_count = ref 0
let sample_count = ref 0

let idle_frame = "idle"

let fold_of_stack = function
  | [] -> idle_frame
  | frames -> String.concat ";" frames

let tick () =
  (* group this tick's observations so the journal carries one event
     per distinct stack, not one per domain *)
  let this_tick : (string, int ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun stack ->
      let key = fold_of_stack stack in
      match Hashtbl.find_opt this_tick key with
      | Some r -> Stdlib.incr r
      | None -> Hashtbl.add this_tick key (ref 1))
    (Phase.stacks ());
  let tick_no =
    Mutex.protect agg_mu (fun () ->
        Stdlib.incr tick_count;
        Hashtbl.iter
          (fun key r ->
            sample_count := !sample_count + !r;
            match Hashtbl.find_opt agg key with
            | Some total -> total := !total + !r
            | None -> Hashtbl.add agg key (ref !r))
          this_tick;
        !tick_count)
  in
  Hashtbl.iter
    (fun key r ->
      Journal.emit ~severity:Journal.Debug ~component:"profile"
        ~attrs:
          [
            ("tick", string_of_int tick_no);
            ("stack", key);
            ("count", string_of_int !r);
          ]
        "sample")
    this_tick

let ticks () = Mutex.protect agg_mu (fun () -> !tick_count)
let samples () = Mutex.protect agg_mu (fun () -> !sample_count)

let folded () =
  Mutex.protect agg_mu (fun () ->
      Hashtbl.fold (fun k r acc -> (k, !r) :: acc) agg [])
  |> List.sort (fun (ka, ca) (kb, cb) ->
         match compare cb ca with 0 -> compare ka kb | c -> c)

let reset () =
  Mutex.protect agg_mu (fun () ->
      Hashtbl.reset agg;
      tick_count := 0;
      sample_count := 0)

let to_folded_text stacks =
  let b = Buffer.create 256 in
  List.iter
    (fun (stack, n) -> Buffer.add_string b (Printf.sprintf "%s %d\n" stack n))
    stacks;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* flamegraph SVG                                                      *)
(* ------------------------------------------------------------------ *)

(* The standard flamegraph layout: x = share of samples, y = stack
   depth (root row at the bottom), siblings sorted by name for a
   deterministic image. Same hand-built-SVG idiom as
   Vc_route.Render.result_svg - Buffer + printf, no dependencies. *)

type node = { mutable n_count : int; n_kids : (string, node) Hashtbl.t }

let new_node () = { n_count = 0; n_kids = Hashtbl.create 4 }

let build_tree stacks =
  let root = new_node () in
  List.iter
    (fun (stack, count) ->
      let rec insert node = function
        | [] -> ()
        | frame :: rest ->
          let kid =
            match Hashtbl.find_opt node.n_kids frame with
            | Some k -> k
            | None ->
              let k = new_node () in
              Hashtbl.add node.n_kids frame k;
              k
          in
          (* inclusive counts: a frame's width covers its descendants *)
          kid.n_count <- kid.n_count + count;
          insert kid rest
      in
      insert root (String.split_on_char ';' stack))
    stacks;
  root

let rec tree_depth node =
  Hashtbl.fold (fun _ k acc -> max acc (1 + tree_depth k)) node.n_kids 0

(* a stable warm palette keyed on the frame name *)
let frame_color name =
  let h = Hashtbl.hash name in
  let r = 200 + (h mod 56)
  and g = 70 + (h / 56 mod 120)
  and b = 30 + (h / 7919 mod 50) in
  Printf.sprintf "rgb(%d,%d,%d)" r g b

let xml_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let flamegraph_svg ?(title = "continuous profile") ?(ticks = 0) stacks =
  let root = build_tree stacks in
  let total =
    Hashtbl.fold (fun _ k acc -> acc + k.n_count) root.n_kids 0
  in
  let width = 1000.0 in
  let row_h = 16.0 in
  let header_h = 24.0 in
  let depth = max 1 (tree_depth root) in
  let height = header_h +. (float_of_int depth *. row_h) +. 4.0 in
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" \
        height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\" font-family=\"monospace\" \
        font-size=\"11\">\n"
       width height width height);
  Buffer.add_string b
    (Printf.sprintf "<!-- flamegraph samples=%d root_samples=%d ticks=%d -->\n"
       total total ticks);
  Buffer.add_string b
    (Printf.sprintf
       "<text x=\"4\" y=\"15\" font-size=\"13\">%s - %d sample(s), %d \
        tick(s)</text>\n"
       (xml_escape title) total ticks);
  let scale = if total = 0 then 0.0 else width /. float_of_int total in
  let rect ~x ~w ~level name count =
    (* rows grow upward from the bottom edge, flamegraph style *)
    let y = height -. 2.0 -. (float_of_int (level + 1) *. row_h) in
    let pct =
      if total = 0 then 0.0
      else 100.0 *. float_of_int count /. float_of_int total
    in
    Buffer.add_string b
      (Printf.sprintf
         "<g><title>%s: %d sample(s), %.1f%%</title><rect x=\"%.2f\" \
          y=\"%.2f\" width=\"%.2f\" height=\"%.1f\" fill=\"%s\" \
          stroke=\"white\" stroke-width=\"0.5\"/>"
         (xml_escape name) count pct x y w (row_h -. 1.0) (frame_color name));
    if w >= 40.0 then begin
      let max_chars = int_of_float (w /. 7.0) in
      let label =
        if String.length name <= max_chars then name
        else String.sub name 0 (max 1 (max_chars - 1)) ^ "~"
      in
      Buffer.add_string b
        (Printf.sprintf "<text x=\"%.2f\" y=\"%.2f\" fill=\"black\">%s</text>"
           (x +. 3.0)
           (y +. row_h -. 5.0)
           (xml_escape label))
    end;
    Buffer.add_string b "</g>\n"
  in
  let sorted_kids node =
    Hashtbl.fold (fun name k acc -> (name, k) :: acc) node.n_kids []
    |> List.sort compare
  in
  let rec layout node ~x ~level =
    List.fold_left
      (fun x (name, kid) ->
        let w = float_of_int kid.n_count *. scale in
        rect ~x ~w ~level name kid.n_count;
        layout kid ~x ~level:(level + 1) |> ignore;
        x +. w)
      x (sorted_kids node)
  in
  ignore (layout root ~x:0.0 ~level:0);
  Buffer.add_string b "</svg>\n";
  Buffer.contents b
