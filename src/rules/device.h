#pragma once

#include <string>
#include <vector>

namespace glint::rules {

/// Smart-home platforms covered by the paper (Table 2).
enum class Platform {
  kIFTTT = 0,
  kSmartThings,
  kAlexa,
  kGoogleAssistant,
  kHomeAssistant,
};
constexpr int kNumPlatforms = 5;

const char* PlatformName(Platform p);

/// Device taxonomy. The names align with the NLP lexicon vocabulary so that
/// rendered rule sentences round-trip through the parser.
enum class DeviceType {
  kLight = 0,
  kLock,
  kWindow,
  kDoor,
  kGarage,
  kBlind,
  kThermostat,
  kAc,
  kHeater,
  kOven,
  kHumidifier,
  kDehumidifier,
  kFan,
  kTv,
  kSpeaker,
  kVacuum,
  kSprinkler,
  kCoffeeMaker,
  kKettle,
  kCamera,
  kMotionSensor,
  kContactSensor,
  kTemperatureSensor,
  kHumiditySensor,
  kSmokeAlarm,
  kPresenceSensor,
  kLeakSensor,
  kButton,
  kPlug,
  kSecuritySystem,
  kPhone,  ///< notification sink
  // Web services (IFTTT-style non-IoT endpoints; they dominate real IFTTT
  // corpora and rarely participate in physical threats).
  kEmailService,
  kWeatherService,
  kCalendar,
  kSocialMedia,
  kSpreadsheet,
};
constexpr int kNumDeviceTypes = 36;

/// Lexicon word for a device type (e.g. kAc -> "ac").
const char* DeviceWord(DeviceType d);

/// Physical and logical channels through which rules interact.
enum class Channel {
  kNone = 0,
  kTemperature,
  kHumidity,
  kSmoke,
  kMotion,
  kIlluminance,
  kSound,
  kContact,    ///< open/close state of openings
  kLockState,
  kPresence,
  kWater,
  kPower,
  kSecurity,   ///< armed/disarmed, notifications
  kTime,
  kOccupancy,
  kDigital,    ///< web-service events (email, posts, calendar, weather)
};
constexpr int kNumChannels = 16;

const char* ChannelName(Channel c);

/// Commands a rule action can issue to a device.
enum class Command {
  kOn = 0,
  kOff,
  kOpen,
  kClose,
  kLock,
  kUnlock,
  kDim,
  kBrighten,
  kPlay,
  kStopPlay,
  kNotify,
  kSnapshot,
  kArm,
  kDisarm,
  kStartClean,
  kSetLevel,   ///< set an attribute to a fixed value (e.g. brightness 100%)
};

/// True when the two commands drive the same attribute in opposite
/// directions (on/off, open/close, lock/unlock, dim/brighten, ...).
bool CommandsOppose(Command a, Command b);

/// Environmental side effect of executing `cmd` on a device of type `d`:
/// which channel it perturbs and in which direction (+1 raises the channel
/// value, -1 lowers it, 0 none). E.g. (kHeater, kOn) -> {kTemperature, +1};
/// (kWindow, kOpen) -> {kTemperature, -1} (outside air) and {kContact, 0}.
struct EnvEffect {
  Channel channel = Channel::kNone;
  int direction = 0;
  /// True for effects that manifest over a long horizon (temperature,
  /// humidity drift) as opposed to instantaneous state changes. Drives the
  /// "action ablation" long-term threat semantics.
  bool slow = false;
};

/// All environmental effects of (device, command); may be empty.
std::vector<EnvEffect> EffectsOf(DeviceType d, Command cmd);

/// The channel on which a device's *state change itself* is observable
/// (e.g. window -> kContact, lock -> kLockState, light -> kIlluminance).
Channel StateChannelOf(DeviceType d);

/// The channel a sensor device observes (kNone for actuators).
Channel SensedChannelOf(DeviceType d);

/// True for sensor-style devices (they trigger, are not commanded).
bool IsSensor(DeviceType d);

}  // namespace glint::rules
