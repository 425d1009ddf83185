#include "nlp/lexicon.h"

namespace glint::nlp {

const char* PosName(Pos pos) {
  switch (pos) {
    case Pos::kNoun: return "NOUN";
    case Pos::kVerb: return "VERB";
    case Pos::kAdjective: return "ADJ";
    case Pos::kAdverb: return "ADV";
    case Pos::kAdposition: return "ADP";
    case Pos::kDeterminer: return "DET";
    case Pos::kSconj: return "SCONJ";
    case Pos::kCconj: return "CCONJ";
    case Pos::kPronoun: return "PRON";
    case Pos::kNumber: return "NUM";
    case Pos::kParticle: return "PART";
    case Pos::kProperNoun: return "PROPN";
    case Pos::kOther: return "X";
  }
  return "X";
}

const Lexicon& Lexicon::Instance() {
  static const Lexicon* lexicon = new Lexicon();
  return *lexicon;
}

Lexicon::Lexicon() {
  // ---- Function words -----------------------------------------------------
  AddWords(Pos::kDeterminer, {"the", "a", "an", "any", "all", "every", "some"});
  AddWords(Pos::kSconj, {"if", "when", "whenever", "while", "after", "before",
                         "until", "once"});
  AddWords(Pos::kCconj, {"and", "or", "but", "then"});
  AddWords(Pos::kAdposition,
           {"in", "on", "at", "to", "from", "of", "above", "below", "between",
            "during", "for", "with", "by", "into", "near"});
  AddWords(Pos::kPronoun, {"it", "they", "them", "i", "you", "my", "your"});
  AddWords(Pos::kParticle, {"not", "no"});
  for (const char* w :
       {"the", "a", "an", "is", "are", "be", "to", "of", "and", "or", "if",
        "when", "then", "it", "at", "in", "on", "for", "with", "my", "your",
        "i", "you", "that", "this", "please"}) {
    stop_words_.insert(w);
  }

  // ---- Verbs: synonym clusters (actions on devices) -----------------------
  AddCluster("power_on", {"turn_on", "activate", "enable", "start", "switch_on",
                          "power"});
  AddCluster("power_off",
             {"turn_off", "deactivate", "disable", "stop", "switch_off",
              "shut_off"});
  AddCluster("open_act", {"open", "raise", "uncover"});
  AddCluster("close_act", {"close", "shut", "lower"});
  AddCluster("lock_act", {"lock", "secure"});
  AddCluster("unlock_act", {"unlock", "unlatch"});
  AddCluster("detect_act", {"detect", "sense", "notice", "observe"});
  AddCluster("notify_act", {"notify", "send", "alert", "text", "email",
                            "report", "announce"});
  AddCluster("play_act", {"play", "stream"});
  AddCluster("set_act", {"set", "adjust", "change", "configure"});
  AddCluster("dim_act", {"dim", "darken"});
  AddCluster("brighten_act", {"brighten", "lighten"});
  AddCluster("increase_act", {"increase", "rise", "raise_level", "grow"});
  AddCluster("decrease_act", {"decrease", "drop", "fall", "reduce"});
  AddCluster("arrive_act", {"arrive", "enter", "come"});
  AddCluster("leave_act", {"leave", "depart", "exit"});
  AddCluster("arm_act", {"arm"});
  AddCluster("disarm_act", {"disarm"});
  AddCluster("record_act", {"record", "capture", "snapshot_act"});
  AddCluster("beep_act", {"beep", "ring", "chime", "sound_act", "buzz"});
  AddCluster("run_act", {"run", "execute", "trigger", "launch"});
  AddCluster("heat_act", {"heat", "warm", "preheat"});
  AddCluster("cool_act", {"cool", "chill"});
  AddCluster("water_act", {"water", "irrigate", "sprinkle"});
  AddCluster("clean_act", {"clean", "vacuum_act", "sweep"});
  for (const char* w :
       {"turn_on", "activate", "enable", "start", "switch_on", "power",
        "turn_off", "deactivate", "disable", "stop", "switch_off", "shut_off",
        "open", "raise", "uncover", "close", "shut", "lower", "lock", "secure",
        "unlock", "unlatch", "detect", "sense", "notice", "observe", "notify",
        "send", "alert", "text", "email", "report", "announce", "play",
        "stream", "set", "adjust", "change", "configure", "dim", "darken",
        "brighten", "lighten", "increase", "rise", "grow", "decrease", "drop",
        "fall", "reduce", "arrive", "enter", "come", "leave", "depart", "exit",
        "arm", "disarm", "record", "capture", "beep", "ring", "chime", "buzz",
        "run", "execute", "trigger", "launch", "heat", "warm", "preheat",
        "cool", "chill", "water", "irrigate", "sprinkle", "clean", "sweep",
        "turn", "keep", "make", "check", "unlocked", "locked", "opened",
        "closed", "turned", "playing", "beeping", "detected", "armed",
        "disarmed", "occupied"}) {
    pos_.emplace(w, Pos::kVerb);
  }

  // ---- Device nouns & hypernym taxonomy -----------------------------------
  AddHypernym("device",
              {"light", "lock", "window", "door", "sensor", "appliance",
               "thermostat", "camera", "speaker", "switch", "plug", "valve",
               "button", "assistant", "blind", "garage"});
  AddHypernym("light", {"bulb", "lamp", "chandelier", "nightlight"});
  AddHypernym("sensor",
              {"motion_sensor", "contact_sensor", "temperature_sensor",
               "smoke_alarm", "humidity_sensor", "presence_sensor",
               "leak_sensor", "co_detector", "doorbell"});
  AddHypernym("appliance",
              {"ac", "heater", "oven", "humidifier", "dehumidifier", "fan",
               "tv", "vacuum", "sprinkler", "coffee_maker", "washer", "dryer",
               "fridge", "dishwasher", "kettle"});
  AddHypernym("speaker", {"alexa", "echo", "soundbar"});
  AddHypernym("opening", {"window", "door", "garage", "blind", "gate"});

  for (const char* w :
       {"device", "light", "lights", "lock", "window", "windows", "door",
        "doors", "sensor", "appliance", "thermostat", "camera", "speaker",
        "switch", "plug", "valve", "button", "assistant", "blind", "blinds",
        "garage", "bulb", "lamp", "chandelier", "nightlight", "motion_sensor",
        "contact_sensor", "temperature_sensor", "smoke_alarm",
        "humidity_sensor", "presence_sensor", "leak_sensor", "co_detector",
        "doorbell", "ac", "heater", "oven", "humidifier", "dehumidifier",
        "fan", "tv", "vacuum", "sprinkler", "coffee_maker", "washer", "dryer",
        "fridge", "dishwasher", "kettle", "echo", "soundbar", "gate",
        "opening", "temperature", "humidity", "smoke", "motion", "presence",
        "brightness", "sound", "music", "movie", "movies", "notification",
        "snapshot", "alarm", "state", "mode", "home", "house", "room",
        "bedroom", "kitchen", "bathroom", "living_room", "hallway", "garden",
        "lawn", "sun", "sunrise", "sunset", "midnight", "noon", "morning",
        "evening", "night", "time", "timer", "schedule", "weather", "rain",
        "wind", "co", "leak", "water_level", "energy", "power_usage", "scene",
        "routine", "command", "voice", "user", "guest", "visitor", "pet",
        "degree", "degrees", "percent", "level", "status", "condition",
        "heating", "cooling", "occupancy", "email", "message", "calendar",
        "event", "spreadsheet", "row", "forecast", "feed", "post", "tweet"}) {
    pos_.emplace(w, Pos::kNoun);
  }

  // Map plural forms into their singular clusters for similarity purposes.
  AddCluster("light_obj", {"light", "lights", "bulb", "lamp"});
  AddCluster("window_obj", {"window", "windows"});
  AddCluster("door_obj", {"door", "doors", "gate"});
  AddCluster("blind_obj", {"blind", "blinds"});
  AddCluster("movie_obj", {"movie", "movies", "music"});
  AddCluster("home_obj", {"home", "house"});
  AddCluster("temp_obj", {"temperature", "thermostat"});

  // ---- Meronymy (part-of) --------------------------------------------------
  AddMeronym("door", {"lock", "doorbell", "contact_sensor"});
  AddMeronym("house", {"room", "door", "window", "garage", "garden"});
  AddMeronym("room",
             {"light", "window", "door", "thermostat", "tv", "speaker"});
  AddMeronym("garden", {"sprinkler", "lawn", "gate"});
  AddMeronym("window", {"blind", "contact_sensor"});

  // ---- Physical channels ----------------------------------------------------
  AddChannel("temperature", {"temperature", "thermostat", "ac", "heater",
                             "oven", "temperature_sensor", "degree",
                             "degrees", "heating", "cooling", "heat", "warm",
                             "cool", "preheat"});
  AddChannel("humidity", {"humidity", "humidifier", "dehumidifier",
                          "humidity_sensor"});
  AddChannel("smoke", {"smoke", "smoke_alarm", "co", "co_detector"});
  AddChannel("motion", {"motion", "motion_sensor", "vacuum", "pet",
                        "visitor"});
  AddChannel("illuminance", {"light", "lights", "bulb", "lamp", "brightness",
                             "sun", "sunrise", "sunset", "dim", "brighten",
                             "nightlight", "chandelier"});
  AddChannel("sound", {"sound", "music", "speaker", "alexa", "echo",
                       "soundbar", "tv", "movie", "movies", "beep", "ring",
                       "chime", "buzz", "play", "stream"});
  AddChannel("contact", {"window", "windows", "door", "doors", "garage",
                         "gate", "contact_sensor", "blind", "blinds", "open",
                         "close", "shut"});
  AddChannel("lock_state", {"lock", "unlock", "locked", "unlocked",
                            "secure"});
  AddChannel("presence", {"presence", "presence_sensor", "arrive", "leave",
                          "home", "user", "guest", "occupancy", "occupied"});
  AddChannel("water", {"leak", "leak_sensor", "sprinkler", "valve", "water",
                       "irrigate", "sprinkle", "washer", "rain"});
  AddChannel("power", {"plug", "switch", "energy", "power_usage",
                       "coffee_maker", "kettle"});
  AddChannel("security", {"arm", "disarm", "armed", "disarmed", "alarm",
                          "camera", "snapshot", "record", "capture",
                          "notification", "notify", "alert"});
  AddChannel("time", {"time", "timer", "schedule", "midnight", "noon",
                      "morning", "evening", "night", "sunrise", "sunset"});
  AddChannel("digital", {"email", "message", "calendar", "event",
                         "spreadsheet", "row", "forecast", "feed", "post",
                         "tweet", "weather", "rain"});

  // ---- Named entities (brands) — discarded by Algorithm 1 ------------------
  for (const char* w : {"wyze", "philips", "hue", "samsung", "nest", "ring_brand",
                        "ecobee", "tplink", "sonos", "arlo", "eufy", "lifx"}) {
    named_entities_.insert(w);
    pos_.emplace(w, Pos::kProperNoun);
  }

  // ---- Adjectives / adverbs -------------------------------------------------
  AddWords(Pos::kAdjective,
           {"smart", "outdoor", "indoor", "outside", "inside", "high", "low",
            "hot", "cold", "warm_adj", "bright", "dark", "manual", "automatic",
            "armed_adj", "away", "asleep", "active", "inactive", "wet", "dry",
            "loud", "quiet", "front", "back", "new", "old", "horror",
            "living", "every_adj"});
  AddWords(Pos::kAdverb, {"automatically", "immediately", "slowly", "quickly",
                          "daily", "again", "forever"});
}

void Lexicon::AddWords(Pos pos, const std::vector<std::string>& words) {
  for (const auto& w : words) pos_.emplace(w, pos);
}

void Lexicon::AddCluster(const std::string& cluster,
                         const std::vector<std::string>& words) {
  for (const auto& w : words) cluster_[w] = cluster;
}

void Lexicon::AddHypernym(const std::string& parent,
                          const std::vector<std::string>& children) {
  for (const auto& c : children) hypernym_parent_[c] = parent;
}

void Lexicon::AddMeronym(const std::string& whole,
                         const std::vector<std::string>& parts) {
  auto& v = meronym_parts_[whole];
  v.insert(v.end(), parts.begin(), parts.end());
}

void Lexicon::AddChannel(const std::string& channel,
                         const std::vector<std::string>& words) {
  for (const auto& w : words) channel_.emplace(w, channel);
}

Pos Lexicon::PosOf(const std::string& word) const {
  auto it = pos_.find(word);
  return it == pos_.end() ? Pos::kOther : it->second;
}

bool Lexicon::Contains(const std::string& word) const {
  return pos_.count(word) > 0;
}

const std::string& Lexicon::ClusterOf(const std::string& word) const {
  auto it = cluster_.find(word);
  return it == cluster_.end() ? empty_ : it->second;
}

bool Lexicon::AreSynonyms(const std::string& a, const std::string& b) const {
  if (a == b) return true;
  const std::string& ca = ClusterOf(a);
  return !ca.empty() && ca == ClusterOf(b);
}

bool Lexicon::IsHypernym(const std::string& ancestor,
                         const std::string& word) const {
  std::string cur = word;
  // The taxonomy is a forest of depth <= 4; walk to the root.
  for (int hops = 0; hops < 8; ++hops) {
    auto it = hypernym_parent_.find(cur);
    if (it == hypernym_parent_.end()) return false;
    if (it->second == ancestor) return true;
    cur = it->second;
  }
  return false;
}

bool Lexicon::HypernymRelated(const std::string& a,
                              const std::string& b) const {
  if (IsHypernym(a, b) || IsHypernym(b, a)) return true;
  auto ia = hypernym_parent_.find(a);
  auto ib = hypernym_parent_.find(b);
  return ia != hypernym_parent_.end() && ib != hypernym_parent_.end() &&
         ia->second == ib->second;
}

bool Lexicon::IsMeronym(const std::string& part,
                        const std::string& whole) const {
  auto it = meronym_parts_.find(whole);
  if (it == meronym_parts_.end()) return false;
  for (const auto& p : it->second) {
    if (p == part || IsMeronym(part, p)) return true;
  }
  return false;
}

bool Lexicon::MeronymRelated(const std::string& a,
                             const std::string& b) const {
  return IsMeronym(a, b) || IsMeronym(b, a);
}

bool Lexicon::IsNamedEntity(const std::string& word) const {
  return named_entities_.count(word) > 0;
}

bool Lexicon::IsStopWord(const std::string& word) const {
  return stop_words_.count(word) > 0;
}

const std::string& Lexicon::ChannelOf(const std::string& word) const {
  auto it = channel_.find(word);
  return it == channel_.end() ? empty_ : it->second;
}

}  // namespace glint::nlp
