(* Output oracles. Every check compares canonical JSON bytes
   ([Obs.Json.to_string]) so that any drift in any field is a failure. *)

let baseline_path = "test/baseline_sweep_summaries.json"

(* Registry name -> canonical JSON of its checked-in baseline summary. *)
type baseline = (string, string) Hashtbl.t

let load_baseline ?(path = baseline_path) () : baseline =
  let json = Obs.Json.parse_exn (In_channel.with_open_bin path In_channel.input_all) in
  let table = Hashtbl.create 32 in
  (match Obs.Json.to_list json with
  | Some entries ->
      List.iter
        (fun e ->
          match Option.bind (Obs.Json.member "name" e) Obs.Json.to_string_opt with
          | Some name -> Hashtbl.replace table name (Obs.Json.to_string e)
          | None -> failwith "baseline entry without a name")
        entries
  | None -> failwith "baseline is not a JSON list");
  table

let summary_string s = Obs.Json.to_string (Jrpm.Report_summary.to_json s)

(* A sweep or explore-default summary: byte-equal to the baseline, and
   (the independent check) the TLS run printed what the sequential
   interpreter printed. *)
let check_summary (baseline : baseline) (s : Jrpm.Report_summary.t) =
  let name = s.Jrpm.Report_summary.name in
  match Hashtbl.find_opt baseline name with
  | None -> Error (name ^ ": no baseline entry")
  | Some expected when expected <> summary_string s ->
      Error (name ^ ": summary differs from the checked-in baseline")
  | Some _ when not s.Jrpm.Report_summary.outputs_match ->
      Error (name ^ ": TLS output differs from sequential output")
  | Some _ -> Ok ()

(* ---------------- daemon responses ---------------- *)

(* What a serve response must contain, computed in-process during
   set-up from the one-shot library calls. *)
type expected =
  | Summary of string  (** profile: the [summary] member *)
  | Replayed of string  (** replay: the [summaries] member *)
  | Matrix of string  (** explore: the whole result *)

let expect_profile s = Summary (summary_string s)

let expect_replay (outcomes : Jrpm.Replay.outcome list) =
  Replayed
    (Obs.Json.to_string
       (Obs.Json.List
          (List.map
             (fun (o : Jrpm.Replay.outcome) ->
               Jrpm.Report_summary.to_json o.Jrpm.Replay.replayed)
             outcomes)))

let expect_explore t = Matrix (Obs.Json.to_string (Jrpm.Explore.to_json t))

let check_response expected (r : Jrpm.Daemon.response) =
  let member key json =
    Option.map Obs.Json.to_string (Obs.Json.member key json)
  in
  match r.Jrpm.Daemon.rsp with
  | Error msg -> Error ("daemon error: " ^ msg)
  | Ok json -> (
      match expected with
      | Summary s ->
          if member "summary" json = Some s then Ok ()
          else Error "profile summary differs from the one-shot run"
      | Replayed s ->
          if member "summaries" json <> Some s then
            Error "replayed summaries differ from the one-shot replay"
          else if Obs.Json.member "matches" json <> Some (Obs.Json.Bool true)
          then Error "replay does not match its recorded summary"
          else Ok ()
      | Matrix s ->
          if Obs.Json.to_string json = s then Ok ()
          else Error "explore matrix differs from the one-shot explore")

(* A result the benchmark computed in-process with a replica, in the
   expectation's own shape: the summary, the summaries list, or the
   whole matrix. *)
let check_local expected local =
  let want = match expected with Summary s | Replayed s | Matrix s -> s in
  if Obs.Json.to_string local = want then Ok ()
  else Error "replica result differs from the one-shot result"
