(* Seeded input generators. Every workload input — the sweep's program
   order, the explore grid, the serve request mix — comes from here, so
   one seed always yields the same inputs.

   The draws keep the amount of work per seed constant and vary only its
   order and shape: every seed sweeps every registry program, every
   explore grid has the same number of points, and every serve deck has
   the same request composition. That keeps seed-to-seed spread in the
   timings down to what scheduling order and config shape cause. *)

let rng ~seed ~salt = Util.Rng.create ~seed:((seed * 1_000_003) + salt + 1)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Util.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ---------------- sweep ---------------- *)

(* Pass [pass] of a sweep run: the whole registry in a seeded order. *)
let sweep_order ~seed ~pass =
  shuffle (rng ~seed ~salt:(100 + pass)) Workloads.Registry.names

(* ---------------- explore ---------------- *)

(* The archive the explore grid replays. Record sizes are skewed on
   purpose — shallow has 1.65M events, FourierTest 7k — so the adaptive
   scheduler's longest-first framing matters. *)
let explore_records =
  [
    "shallow"; "FourierTest"; "monteCarlo"; "fft"; "Assignment"; "LuFactor";
    "NeuralNet"; "BitOps"; "mp3";
  ]

(* Every grid crosses the tracer's heap timestamp FIFO — a geometry
   axis, so the tracer itself is re-sized and evicts differently per
   point — with one seeded analyzer-side axis, which changes only the
   Eq. 1/Eq. 2 evaluation. Geometry axes change the tracer's cost, so
   the one in the grid is fixed: every seed then costs the same and
   differs only in the shape of the analysis. No value is the default
   machine's, so every grid has 3 x 3 points plus the default column. *)
let geometry_axis = ("heap_fifo", [ 64; 96; 384 ])

let analyzer_axes =
  [
    ("cpus", [ 2; 8; 16 ]);
    ("startup", [ 10; 50; 100 ]);
    ("shutdown", [ 10; 50; 100 ]);
    ("eoi", [ 1; 10; 20 ]);
    ("restart", [ 2; 10; 20 ]);
    ("forward", [ 5; 20; 40 ]);
  ]

let spec (axis, values) =
  axis ^ "=" ^ String.concat "," (List.map string_of_int values)

let explore_grid ~seed =
  let rng = rng ~seed ~salt:200 in
  let axis, values =
    List.nth analyzer_axes (Util.Rng.int rng (List.length analyzer_axes))
  in
  [ spec geometry_axis; spec (axis, shuffle rng values) ]

(* ---------------- serve ---------------- *)

type request =
  | Replay of string  (** one record of the serve archive *)
  | Profile of string  (** one registry program, full pipeline *)
  | Explore of string list  (** a narrow grid over the serve archive *)

let serve_records =
  [
    "Assignment"; "fft"; "FourierTest"; "monteCarlo"; "LuFactor"; "NeuralNet";
    "BitOps"; "mp3";
  ]

let serve_profiles =
  [ "Assignment"; "fft"; "FourierTest"; "monteCarlo"; "LuFactor"; "NeuralNet" ]

(* analyzer-side axes only, so every seed's explores cost the same *)
let narrow_grids =
  [ [ "cpus=2" ]; [ "startup=50" ]; [ "restart=10" ]; [ "forward=20" ];
    [ "eoi=10" ] ]

(* The two narrow grids a seed's explore requests use. *)
let serve_grids ~seed =
  match shuffle (rng ~seed ~salt:300) narrow_grids with
  | a :: b :: _ -> [ a; b ]
  | _ -> assert false

(* Deck [deck] of the serve mix: 48 requests — 40 single-record replays
   (each archive record five times), 6 profiles (each program once) and
   2 explores — in a seeded order. Any whole number of decks has the
   same composition. *)
let serve_deck ~seed ~deck =
  let replays =
    List.concat_map (fun r -> List.init 5 (fun _ -> Replay r)) serve_records
  in
  let profiles = List.map (fun p -> Profile p) serve_profiles in
  let explores = List.map (fun g -> Explore g) (serve_grids ~seed) in
  shuffle (rng ~seed ~salt:(1000 + deck)) (replays @ profiles @ explores)

let request_kind = function
  | Replay _ -> "replay"
  | Profile _ -> "profile"
  | Explore _ -> "explore"

let describe = function
  | Replay r -> "replay " ^ r
  | Profile p -> "profile " ^ p
  | Explore g -> "explore " ^ String.concat " " g
